package machine

import (
	"strings"
	"testing"

	"rcpn/internal/arm"
)

func TestPipelineTrace(t *testing.T) {
	p, err := arm.Assemble(`
	mov r0, #0
	add r0, r0, #1
	cmp r0, #1
	swi #0
`, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	m := strongARM.build(t, p, Config{})
	var b strings.Builder
	m.AttachTracer(&b, 0)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"cycle", "FD", "EX", "ME", "WB", "mov", "add", "cmp", "swi"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	lines := strings.Count(out, "\n")
	if lines < int(m.Net.CycleCount()) {
		t.Errorf("trace has %d lines for %d cycles", lines, m.Net.CycleCount())
	}
}

func TestPipelineTraceLimit(t *testing.T) {
	p, err := arm.Assemble(`
	mov r1, #0
loop:
	add r1, r1, #1
	cmp r1, #40
	bne loop
	swi #0
`, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	m := xScale.build(t, p, Config{})
	var b strings.Builder
	m.AttachTracer(&b, 5)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	// Header + exactly 5 traced cycles.
	if got := strings.Count(b.String(), "\n"); got != 6 {
		t.Errorf("limited trace produced %d lines", got)
	}
}

func TestTraceMarksAnnulled(t *testing.T) {
	p, err := arm.Assemble(`
	mov r0, #1
	cmp r0, #2
	addeq r0, r0, #9   ; annulled
	swi #0
`, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	m := strongARM.build(t, p, Config{})
	var b strings.Builder
	m.AttachTracer(&b, 0)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "addeq!") {
		t.Errorf("annulled instruction not marked:\n%s", b.String())
	}
}
