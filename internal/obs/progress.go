package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// Progress is the shared per-cell progress sink of the CLIs: a single
// carriage-return line "label: done/total cells" on one writer, serialized
// across worker goroutines. It replaces the \r-formatting every command
// used to hand-roll. A nil *Progress is silent (the -quiet path).
type Progress struct {
	mu      sync.Mutex
	w       io.Writer
	label   string
	lastLen int
}

// NewProgress returns a progress sink, or nil (silent) when w is nil. It
// starts unlabeled; SetLabel names it.
func NewProgress(w io.Writer) *Progress {
	if w == nil {
		return nil
	}
	return &Progress{w: w}
}

// SetLabel switches the line label (between experiments of one run).
func (p *Progress) SetLabel(label string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.label = label
	p.mu.Unlock()
}

// Update redraws the progress line.
func (p *Progress) Update(done, total int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	line := fmt.Sprintf("%s: %d/%d cells", p.label, done, total)
	pad := p.lastLen - len(line)
	if pad < 0 {
		pad = 0
	}
	fmt.Fprintf(p.w, "\r%s%s", line, strings.Repeat(" ", pad))
	p.lastLen = len(line)
	p.mu.Unlock()
}

// Clear wipes the progress line before real output is printed.
func (p *Progress) Clear() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.lastLen > 0 {
		fmt.Fprintf(p.w, "\r%s\r", strings.Repeat(" ", p.lastLen))
		p.lastLen = 0
	}
	p.mu.Unlock()
}

// Hook returns Update as the func(done, total) callback the run options
// accept, or nil for a nil Progress.
func (p *Progress) Hook() func(done, total int) {
	if p == nil {
		return nil
	}
	return p.Update
}
