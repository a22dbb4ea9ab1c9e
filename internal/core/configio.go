package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// LoadConfig reads a Config from a JSON file. Unset fields keep their zero
// values and are defaulted by ApplyDefaults at Run time, so a file needs
// only the fields it wants to pin. Unknown fields are rejected to catch
// typos.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("core: read config: %w", err)
	}
	var cfg Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("core: parse config %s: %w", path, err)
	}
	return cfg, nil
}

// Canonical returns the configuration in its canonical form: defaults
// applied, runtime-only hooks cleared, and the observatory publication
// period and an OfferedLoad that InjectionRate overrides zeroed (neither
// changes the Result). Two Configs that canonicalize identically describe
// the same simulation point and produce bit-identical Results, so the
// canonical form is what Hash digests and what the run store records.
func (c Config) Canonical() Config {
	c.ApplyDefaults()
	c.OnSample, c.OnTick, c.PhaseProf, c.Cache = nil, nil, nil, nil
	c.TickCycles = 0
	if c.InjectionRate != 0 {
		c.OfferedLoad = 0
	}
	if c.Telemetry != nil {
		// Normalize the pointer so "no options" and "zero options" hash alike
		// only when they produce the same Result (a non-nil collector fills
		// Result.Telemetry even with every option off, so nil-ness stays
		// significant; the copy just detaches the caller's pointer).
		t := *c.Telemetry
		c.Telemetry = &t
	}
	if c.Forensics != nil {
		// Same contract as Telemetry: a non-nil analyzer fills
		// Result.Forensics, so nil-ness stays hash-significant; configs
		// without forensics keep their pre-forensics hashes (the field
		// marshals as omitempty).
		f := *c.Forensics
		c.Forensics = &f
	}
	return c
}

// Hash returns the canonical content address of the simulation point this
// config describes: the SHA-256 of the canonicalized JSON encoding, in hex.
// encoding/json emits struct fields in declaration order and the canonical
// form contains no maps, so the encoding — and therefore the hash — is
// deterministic across processes and platforms. Configs differing only in
// hooks, cache attachment or observatory tick period hash identically;
// anything that changes the Result (including the Telemetry options, which
// select what Result.Telemetry carries) changes the hash.
func (c Config) Hash() string { return digest(c.Canonical()) }

// PairKey is Hash with the algorithm identity masked out: configs that
// differ only in routing algorithm share a PairKey. The observatory's
// comparison endpoints use it to align the points of an A-vs-B overlay —
// two stored runs belong on the same x-axis position exactly when their
// PairKeys match and their offered loads differ by algorithm choice alone.
func (c Config) PairKey() string {
	n := c.Canonical()
	n.Algorithm = "*"
	return digest(n)
}

// digest is the hex SHA-256 of a canonical config's JSON encoding.
func digest(canonical Config) string {
	data, err := json.Marshal(canonical)
	if err != nil {
		// Every persisted Config field is a plain value; Marshal cannot fail.
		panic(fmt.Sprintf("core: canonical config does not marshal: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Save writes the config as indented JSON.
func (c Config) Save(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("core: encode config: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("core: write config: %w", err)
	}
	return nil
}
