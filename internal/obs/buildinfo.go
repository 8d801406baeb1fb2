package obs

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// BuildInfoData identifies the running binary: the Prometheus
// build_info idiom (a constant-1 gauge whose labels carry the
// identity), so every scrape can be traced back to a version and
// toolchain.
type BuildInfoData struct {
	Version   string
	GoVersion string
}

// NewBuildInfo resolves the binary's version (module version, else VCS
// revision, else "dev") and Go toolchain.
func NewBuildInfo() BuildInfoData {
	b := BuildInfoData{Version: "dev", GoVersion: runtime.Version()}
	if info, ok := debug.ReadBuildInfo(); ok {
		if v := info.Main.Version; v != "" && v != "(devel)" {
			b.Version = v
		}
		var rev string
		var dirty bool
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			if dirty {
				rev += "-dirty"
			}
			b.Version = rev
		}
	}
	return b
}

// Register publishes b as a constant-1 build_info gauge in the default
// registry and returns the gauge's full metric name.
func (b BuildInfoData) Register() string {
	name := fmt.Sprintf(`build_info{version=%q,go_version=%q}`, b.Version, b.GoVersion)
	GetGauge(name).Set(1)
	return name
}
