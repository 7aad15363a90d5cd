package main

import (
	"bytes"
	"io"
	"time"

	"aqlsched/internal/experiments"
	"aqlsched/internal/sweep"
)

// evalStep is one call experiments.All makes: compute runs the
// experiment, and the renderer it returns writes its tables.
type evalStep struct {
	name    string
	compute func() func(io.Writer)
}

// evalSteps mirrors experiments.All call for call, so each experiment
// can be timed. The warm-up runs All itself and every repetition's
// output must equal it byte for byte, which also catches All and this
// list drifting apart.
func evalSteps(cfg experiments.Config) []evalStep {
	return []evalStep{
		{"table4", func() func(io.Writer) { return experiments.Table4(cfg).Render }},
		{"fig2", func() func(io.Writer) {
			r := experiments.Fig2(cfg)
			return func(w io.Writer) {
				for _, t := range r.Tables() {
					t.Render(w)
				}
			}
		}},
		{"fig4", func() func(io.Writer) { return experiments.Fig4(cfg).Table().Render }},
		{"table3", func() func(io.Writer) { return experiments.Table3(cfg).Table().Render }},
		{"fig5", func() func(io.Writer) { return experiments.Fig5(cfg).Table().Render }},
		{"single_socket", func() func(io.Writer) {
			r := experiments.SingleSocket(cfg)
			return func(w io.Writer) {
				r.Table5Table().Render(w)
				r.Fig6LeftTable().Render(w)
			}
		}},
		{"fig6_right", func() func(io.Writer) { return experiments.Fig6Right(cfg).Table().Render }},
		{"fig7", func() func(io.Writer) { return experiments.Fig7(cfg).Table().Render }},
		{"fig8", func() func(io.Writer) { return experiments.Fig8(cfg).Table().Render }},
		{"table6", func() func(io.Writer) { return experiments.Table6().Render }},
		{"adaptation", func() func(io.Writer) { return experiments.Adaptation(cfg).Table().Render }},
		{"overhead", func() func(io.Writer) { return experiments.Overhead(cfg).Table().Render }},
	}
}

// renderOnly are the steps whose compute is only table assembly; they
// count toward experiments.render_s, not as operations.
var renderOnly = map[string]bool{"table4": true, "table6": true}

type evalWorkload struct {
	e     *env
	cfg   experiments.Config
	steps []evalStep
	want  []byte
}

func newEval(e *env) workload { return &evalWorkload{e: e} }

// setup builds the experiment configuration and the sweep grids the
// experiments run, and validates them: the inputs, without simulating.
//
// The evaluation always runs at the paper's configuration, whatever the
// workload seed: at other seeds Fig. 5's "best" column can be an exact
// tie between two quanta, which BestQuantum breaks in map order, so the
// rendered evaluation is not reproducible there (seeds 5, 9, 20, 23, 27,
// 32-34, 38 and 39 of 0-39 tie).
func (w *evalWorkload) setup() error {
	w.cfg = experiments.DefaultConfig()
	w.cfg.Quick = w.e.tiny
	for _, sp := range []*sweep.Spec{
		experiments.Fig5Sweep(w.cfg),
		experiments.SingleSocketSweep(w.cfg),
		experiments.Fig8Sweep(w.cfg),
		experiments.AdaptationSweep(w.cfg),
	} {
		if err := sp.Validate(); err != nil {
			return err
		}
		sp.Runs()
	}
	w.steps = evalSteps(w.cfg)
	return nil
}

func (w *evalWorkload) rep(rc *repCtx) {
	if rc.warm {
		var buf bytes.Buffer
		rc.begin()
		experiments.All(w.cfg, &buf)
		rc.finish()
		w.want = buf.Bytes()
		rc.check(len(w.want) > 0, "paper-eval: experiments.All rendered nothing")
		return
	}
	var buf bytes.Buffer
	var render time.Duration
	times := map[string]time.Duration{}
	rc.begin()
	for _, st := range w.steps {
		t0 := time.Now()
		draw := st.compute()
		t1 := time.Now()
		draw(&buf)
		t2 := time.Now()
		render += t2.Sub(t1)
		if renderOnly[st.name] {
			render += t1.Sub(t0)
			continue
		}
		rc.spans.add(rc.span, "experiments", st.name, "", t0, t1)
		times[st.name] = t1.Sub(t0)
		rc.op(t1.Sub(t0), t1.Sub(t0))
	}
	rc.finish()
	for name, d := range times {
		rc.set("experiments."+name+"_s", "s", d.Seconds())
	}
	rc.set("experiments.render_s", "s", render.Seconds())
	rc.check(bytes.Equal(buf.Bytes(), w.want),
		"paper-eval: rendered evaluation differs from experiments.All (%d vs %d bytes)", buf.Len(), len(w.want))
}
