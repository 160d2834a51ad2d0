package sjos

import "strconv"

// AppendCell appends the display form of one matched node to dst — tag="value"
// (Go-quoted, as %q prints it) when the node has text, tag#id otherwise — and
// returns the extended slice. It is the one cell format xqshell and xqserve
// print.
func AppendCell(dst []byte, tag, value string, id NodeID) []byte {
	dst = append(dst, tag...)
	if value == "" {
		return strconv.AppendUint(append(dst, '#'), uint64(id), 10)
	}
	dst = append(dst, '=')
	for i := 0; i < len(value); i++ {
		if b := value[i]; b < ' ' || b > '~' || b == '"' || b == '\\' {
			return strconv.AppendQuote(dst, value)
		}
	}
	// Printable ASCII with nothing to escape quotes to itself.
	return append(append(append(dst, '"'), value...), '"')
}
