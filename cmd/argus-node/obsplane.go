package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"argus/internal/realtime"
)

// obsPlane is the process's observability side: the realtime plane every
// engine reports into (headless without -obs, so -obs-out can still flush a
// final snapshot) plus the -obs-out path.
type obsPlane struct {
	*realtime.Plane
	out string // -obs-out path, "" = none
}

// newObsPlane brings the plane up and, when addr is non-empty, announces the
// bound address on stdout (":0" picks a port, so callers parse the line).
func newObsPlane(addr, out string) (*obsPlane, error) {
	pl, err := realtime.Serve(addr)
	if err != nil {
		return nil, err
	}
	if pl.Addr != "" {
		fmt.Printf("obs listening addr=%s\n", pl.Addr)
	}
	return &obsPlane{Plane: pl, out: out}, nil
}

// flush publishes one final snapshot frame, writes the snapshot to -obs-out
// (atomically: temp file + rename, so a watcher never reads a torn file),
// and tears the plane down. Safe on a nil plane.
func (p *obsPlane) flush() error {
	if p == nil {
		return nil
	}
	p.Hub.PublishSnapshot()
	var err error
	if p.out != "" {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err = enc.Encode(p.Registry.Snapshot()); err == nil {
			tmp := p.out + ".tmp"
			if err = os.WriteFile(tmp, buf.Bytes(), 0o644); err == nil {
				err = os.Rename(tmp, p.out)
			}
		}
	}
	p.Close()
	return err
}
