package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Report is the envelope of a machine-readable benchmark artifact
// (BENCH_<name>.json): what ran, when, and the mode-specific results.
type Report struct {
	Name      string `json:"name"`
	Timestamp string `json:"timestamp"`
	Results   any    `json:"results"`
}

// WriteJSON writes payload as BENCH_<name>.json under dir (dir "" means
// the current directory) and returns the path written.
func WriteJSON(dir, name string, payload any) (string, error) {
	rep := Report{
		Name:      name,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Results:   payload,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", fmt.Errorf("bench: marshal %s: %w", name, err)
	}
	data = append(data, '\n')
	if dir == "" {
		dir = "."
	}
	path := filepath.Join(dir, "BENCH_"+name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
