package experiments

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
)

// Envelope is the one shape every result file has: which lane ran, at which
// size, where, and the lane's own result.
type Envelope struct {
	Lane   string `json:"lane"`
	Quick  bool   `json:"quick"`
	Env    Env    `json:"env"`
	Result any    `json:"result"`
}

// Env says what produced the numbers. Revision and Dirty come from the
// binary's build info and read "unknown" when it carries no VCS stamp.
type Env struct {
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Revision   string `json:"vcs_revision"`
	Dirty      string `json:"vcs_dirty"`
}

// WriteEnvelope writes result to path inside the envelope.
func WriteEnvelope(path, lane string, quick bool, result any) error {
	env := Env{
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Revision: "unknown", Dirty: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Revision = s.Value
			case "vcs.modified":
				env.Dirty = s.Value
			}
		}
	}
	blob, err := json.MarshalIndent(Envelope{Lane: lane, Quick: quick, Env: env, Result: result}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
