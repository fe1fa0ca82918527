package explore

import (
	"fmt"
	"sync"
)

// Run explores the model's full interleaving space under cfg and
// returns the aggregated result.
//
// The exploration tree is split at cfg.ForkDepth into independent
// subtree tasks during a deterministic serial expansion (which also
// accounts for any path that terminates inside the fork zone). Tasks
// then run on a bounded worker pool — one model instance per worker —
// and merge in task order, so the result is identical for every
// Workers value; only wall-clock changes.
func Run(cfg Config) Result {
	cfg = cfg.withDefaults()
	ex := &expander{cfg: cfg, m: cfg.NewModel()}
	tasks := ex.expand()
	res := ex.res
	res.Tasks = len(tasks)

	if len(tasks) == 0 {
		return res
	}
	workers := cfg.Workers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	results := make([]Result, len(tasks))
	if workers <= 1 {
		eng := newEngine(cfg, ex.m) // reuse the expander's model
		for i, t := range tasks {
			results[i] = eng.runTask(t)
		}
	} else {
		var wg sync.WaitGroup
		ch := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				eng := newEngine(cfg, cfg.NewModel())
				for i := range ch {
					results[i] = eng.runTask(tasks[i])
				}
			}()
		}
		for i := range tasks {
			ch <- i
		}
		close(ch)
		wg.Wait()
	}
	for i := range results {
		res.merge(&results[i])
	}
	return res
}

// expander builds the frontier: a serial walk of the tree down to
// ForkDepth that explores every non-slept transition (a persistent set
// valid under every Reduction), emits one task per depth-ForkDepth
// state, and accounts for paths that end earlier. Sleep sets propagate
// across fork-zone siblings exactly as in the engine, so a task's
// subtree never re-explores an interleaving covered by an earlier
// task.
type expander struct {
	cfg   Config
	m     Model
	res   Result
	tasks []task
	ebuf  []Transition
	descs []string
}

func (x *expander) expand() []task {
	x.walk(nil, nil, 0)
	return x.tasks
}

// sleepEntry carries a sleeping transition with its metadata (IDs are
// only meaningful alongside the prefix that minted them, which holds
// here: sleep members were enabled on this prefix).
type sleepEntry struct {
	id   uint64
	meta Transition
}

func (x *expander) walk(choices []uint64, sleep []sleepEntry, level int) {
	if x.res.Truncated {
		return
	}
	if !x.replay(choices) {
		return
	}
	x.ebuf = x.m.Enabled(x.ebuf[:0])
	enabled := append([]Transition(nil), x.ebuf...)
	if len(enabled) == 0 {
		x.terminal(choices)
		return
	}
	if level >= x.cfg.ForkDepth {
		rs := make([]uint64, len(sleep))
		for i, s := range sleep {
			rs[i] = s.id
		}
		x.tasks = append(x.tasks, task{
			choices:   append([]uint64(nil), choices...),
			rootSleep: rs,
		})
		return
	}
	cur := append([]sleepEntry(nil), sleep...)
	asleep := func(id uint64) bool {
		for _, s := range cur {
			if s.id == id {
				return true
			}
		}
		return false
	}
	progressedAny, sleptAny, blockedAll := false, false, true
	for _, t := range enabled {
		if x.res.Paths >= x.cfg.MaxPaths {
			x.res.Truncated = true
			return
		}
		if asleep(t.ID) {
			sleptAny = true
			continue
		}
		if !x.replay(choices) {
			return
		}
		st, panicMsg := x.take(t.ID)
		if panicMsg != "" {
			x.res.Paths++
			x.res.Transitions++
			x.violation(choices, t.ID, "panic: "+panicMsg)
			blockedAll = false
			cur = append(cur, sleepEntry{t.ID, t})
			continue
		}
		switch st {
		case Blocked:
			// Not explored and not asleep: siblings may unblock it.
		case Detected:
			x.res.Transitions++
			x.terminal(append(choices, t.ID))
			blockedAll = false
			cur = append(cur, sleepEntry{t.ID, t})
		case Progressed:
			x.res.Transitions++
			progressedAny = true
			blockedAll = false
			var child []sleepEntry
			for _, s := range cur {
				if DisjointCtrl(s.meta, t) {
					child = append(child, s)
				}
			}
			x.walk(append(choices, t.ID), child, level+1)
			if x.res.Truncated {
				return
			}
			cur = append(cur, sleepEntry{t.ID, t})
		}
		if x.cfg.Reduction == ReduceNone {
			// Full enumeration ignores sleep sets: drop the entry again.
			if n := len(cur); n > 0 && cur[n-1].id == t.ID {
				cur = cur[:n-1]
			}
		}
	}
	if !progressedAny {
		switch {
		case sleptAny:
			x.res.SleepCut++
		case blockedAll:
			// Deadlock in the fork zone: classify via the model.
			if x.replay(choices) {
				x.terminal(choices)
			}
		}
	}
}

// terminal accounts a maximal path ending at the model's current
// state (the model must be positioned there).
func (x *expander) terminal(choices []uint64) {
	x.res.Paths++
	out := x.m.Finish()
	switch out.Status {
	case StatusCompleted:
		x.res.Completed++
		if out.Flagged {
			x.res.Flagged++
		}
	case StatusDetected:
		x.res.Detected++
	default:
		x.res.Stuck++
	}
	if out.Err != "" {
		x.violation(choices, 0, out.Err)
	}
	if x.cfg.CollectTerminals {
		var enc Enc
		x.m.Encode(&enc)
		if x.res.Terminals == nil {
			x.res.Terminals = make(map[Digest]int)
		}
		x.res.Terminals[enc.Digest()]++
	}
}

func (x *expander) violation(choices []uint64, finalID uint64, desc string) {
	v := Violation{Desc: desc}
	v.Path = append(v.Path, choices...)
	if finalID != 0 {
		v.Path = append(v.Path, finalID)
	}
	for _, id := range v.Path {
		v.Trace = append(v.Trace, x.m.Describe(id))
	}
	x.res.Violations = append(x.res.Violations, v)
}

// replay positions the model after the given choices.
func (x *expander) replay(choices []uint64) bool {
	x.m.Reset()
	for _, c := range choices {
		st, panicMsg := x.take(c)
		if st != Progressed || panicMsg != "" {
			x.res.Violations = append(x.res.Violations, Violation{
				Path: append([]uint64(nil), choices...),
				Desc: fmt.Sprintf("fork-zone replay diverged at id %d (step %d, panic %q)", c, st, panicMsg),
			})
			x.res.Truncated = true
			return false
		}
		x.res.Replayed++
	}
	return true
}

func (x *expander) take(id uint64) (st Step, panicMsg string) {
	defer func() {
		if r := recover(); r != nil {
			panicMsg = fmt.Sprint(r)
		}
	}()
	st = x.m.Take(id)
	return st, ""
}
