// Package cli is what the simulation and campaign commands share: a flag
// set in which every flag declares the run modes that read it and its
// lower bound, the campaign exit contract, and reproducer JSON I/O.
package cli

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"os"
)

// Mode is a set of a command's run modes, one bit per mode.
type Mode uint

// Set is a command's flags. Each flag is declared once, bound to a field
// of the command's options struct, with the modes that read it; Check
// rejects an explicitly set flag the running mode does not read, so no
// flag is ever silently ignored.
type Set struct {
	*flag.FlagSet
	modes []string
	decls map[string]*Decl
}

// Decl is one declared flag's read modes, optional lower bound and
// optional flag it needs.
type Decl struct {
	modes    Mode
	min      int64
	hasMin   bool
	requires string
}

// Min sets the flag's lower bound; it applies to integer flags only.
func (d *Decl) Min(v int64) *Decl {
	d.min, d.hasMin = v, true
	return d
}

// Requires makes setting the flag explicitly an error unless flag name
// is set explicitly too, to true or to a non-empty value.
func (d *Decl) Requires(name string) *Decl {
	d.requires = name
	return d
}

// NewSet returns an empty flag set for the named command. modes[i] names
// the mode with bit 1<<i as errors print it ("-service", "campaign").
func NewSet(name string, modes ...string) *Set {
	return &Set{FlagSet: flag.NewFlagSet(name, flag.ExitOnError), modes: modes, decls: map[string]*Decl{}}
}

func (s *Set) decl(name string, modes Mode) *Decl {
	d := &Decl{modes: modes}
	s.decls[name] = d
	return d
}

// Int declares an int flag bound to p and read in modes.
func (s *Set) Int(p *int, name string, value int, modes Mode, usage string) *Decl {
	s.IntVar(p, name, value, usage)
	return s.decl(name, modes)
}

// Int64 declares an int64 flag bound to p and read in modes.
func (s *Set) Int64(p *int64, name string, value int64, modes Mode, usage string) *Decl {
	s.Int64Var(p, name, value, usage)
	return s.decl(name, modes)
}

// Float64 declares a float64 flag bound to p and read in modes.
func (s *Set) Float64(p *float64, name string, value float64, modes Mode, usage string) *Decl {
	s.Float64Var(p, name, value, usage)
	return s.decl(name, modes)
}

// String declares a string flag bound to p and read in modes.
func (s *Set) String(p *string, name string, value string, modes Mode, usage string) *Decl {
	s.StringVar(p, name, value, usage)
	return s.decl(name, modes)
}

// Bool declares a bool flag bound to p and read in modes.
func (s *Set) Bool(p *bool, name string, value bool, modes Mode, usage string) *Decl {
	s.BoolVar(p, name, value, usage)
	return s.decl(name, modes)
}

// Parse parses args; positional arguments are an error.
func (s *Set) Parse(args []string) error {
	if err := s.FlagSet.Parse(args); err != nil {
		return err
	}
	if s.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", s.Args())
	}
	return nil
}

// Given returns, in lexical order, the "-name" form of each of names
// that was set explicitly.
func (s *Set) Given(names ...string) []string {
	var out []string
	s.Visit(func(f *flag.Flag) {
		for _, n := range names {
			if f.Name == n {
				out = append(out, "-"+n)
			}
		}
	})
	return out
}

// Check rejects the explicitly set flags that are below their lower
// bound, then, naming all of them, those that mode does not read, and
// then those set without the flag they require.
func (s *Set) Check(mode Mode) error {
	var err, needs error
	var foreign []string
	s.Visit(func(f *flag.Flag) {
		d := s.decls[f.Name]
		if err == nil && d.hasMin {
			var v int64
			switch x := f.Value.(flag.Getter).Get().(type) {
			case int:
				v = int64(x)
			case int64:
				v = x
			}
			if v < d.min {
				if d.min == 0 {
					err = fmt.Errorf("-%s must be non-negative, got %d", f.Name, v)
				} else {
					err = fmt.Errorf("-%s must be at least %d, got %d", f.Name, d.min, v)
				}
			}
		}
		if d.modes&mode == 0 {
			foreign = append(foreign, "-"+f.Name)
		}
		if needs == nil && d.requires != "" && !s.on(d.requires) {
			needs = fmt.Errorf("-%s requires -%s", f.Name, d.requires)
		}
	})
	if err != nil {
		return err
	}
	if len(foreign) > 0 {
		return fmt.Errorf("flags %v do not apply to %s runs", foreign, s.modes[bits.TrailingZeros(uint(mode))])
	}
	return needs
}

// on reports whether flag name was set explicitly to true or to a
// non-empty value.
func (s *Set) on(name string) bool {
	if len(s.Given(name)) == 0 {
		return false
	}
	switch v := s.Lookup(name).Value.(flag.Getter).Get().(type) {
	case bool:
		return v
	case string:
		return v != ""
	}
	return true
}

// Exit is the campaign exit contract: violations fail a run, unless
// expect marks it as a negative control, which fails without one.
func Exit(expect bool, violations int) error {
	switch {
	case expect && violations == 0:
		return fmt.Errorf("expected violations, found none (is the checker alive?)")
	case !expect && violations > 0:
		return fmt.Errorf("%d violations found", violations)
	}
	return nil
}

// ReadJSON decodes the JSON file at path, the value of flag -name, into
// v and then runs validate when it is non-nil. Errors name the flag and
// the file.
func ReadJSON(name, path string, v any, validate func() error) error {
	blob, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(blob, v)
	}
	if err == nil && validate != nil {
		err = validate()
	}
	if err != nil {
		return fmt.Errorf("-%s %s: %w", name, path, err)
	}
	return nil
}

// WriteJSON writes v to w as two-space-indented JSON and a newline.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// WriteJSONFile writes v as WriteJSON does to the file at path, the -out
// reproducer of a campaign.
func WriteJSONFile(path string, v any) error {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, v); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
