//go:build !race

package sjos_test

const raceBuild = false
