package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Progress renders live completion status with an ETA to a terminal-ish
// writer (stderr), one carriage-return-rewritten line. It is safe for
// concurrent Step calls (core.RunFigure completes points from worker
// goroutines).
type Progress struct {
	mu    sync.Mutex
	w     io.Writer
	label string
	total int
	done  int
	start time.Time
	// now is swappable for tests.
	now      func() time.Time
	lastLine int
}

// NewProgress returns a tracker for total units of work, labelled in front
// of every line.
func NewProgress(w io.Writer, label string, total int) *Progress {
	// The ETA display genuinely wants the wall clock; it never feeds
	// simulation state, and tests swap the clock out.
	p := &Progress{w: w, label: label, total: total, now: time.Now}
	p.start = p.now()
	return p
}

// Step records one completed unit and redraws the line; desc annotates the
// unit just finished (e.g. "nbc rho=0.60 lat=245.1").
func (p *Progress) Step(desc string) {
	wall := p.now() // clock read stays outside the critical section
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	elapsed := wall.Sub(p.start)
	line := fmt.Sprintf("[%d/%d] %s %s | %s elapsed", p.done, p.total, p.label, desc, round(elapsed))
	if p.done < p.total && p.done > 0 {
		remaining := time.Duration(float64(elapsed) / float64(p.done) * float64(p.total-p.done))
		line += fmt.Sprintf(", eta %s", round(remaining))
	}
	p.redraw(line)
}

// Finish clears the rewrite cycle with a final newline and a summary.
func (p *Progress) Finish() {
	wall := p.now() // clock read stays outside the critical section
	p.mu.Lock()
	defer p.mu.Unlock()
	line := fmt.Sprintf("[%d/%d] %s done in %s", p.done, p.total, p.label, round(wall.Sub(p.start)))
	p.redraw(line)
	fmt.Fprintln(p.w)
}

// redraw overwrites the previous line, padding out stale characters.
func (p *Progress) redraw(line string) {
	pad := ""
	if n := p.lastLine - len(line); n > 0 {
		pad = strings.Repeat(" ", n)
	}
	fmt.Fprintf(p.w, "\r%s%s", line, pad)
	p.lastLine = len(line)
}

// round trims durations to one decimal of seconds for stable display.
func round(d time.Duration) time.Duration { return d.Round(100 * time.Millisecond) }
