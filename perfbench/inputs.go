package main

import (
	"lmerge/internal/gen"
	"lmerge/internal/temporal"
	"lmerge/internal/wire"
)

// replica is one physical presentation of the script, rendered and framed
// before any clock starts so the generator spends no CPU on encoding while
// the server is measured.
type replica struct {
	els    temporal.Stream
	frames []byte // the DATA frames of els, back to back
	offs   []int  // offs[i] is where frame i starts; offs[len(els)] = len(frames)
	// insertAt[h] is the position of history h's insert in els.
	insertAt []int32
}

// inputs is everything a trial sends and checks against.
type inputs struct {
	script *gen.Script
	reps   [2]*replica
	// keyOf maps an insert's payload data (64 random bytes, unique per
	// history) to its history index, for matching merged inserts to the
	// replica copies they came from.
	keyOf map[string]int32
}

func (in *inputs) elements() int { return len(in.reps[0].els) + len(in.reps[1].els) }

// makeInputs draws the workload's script from seed and renders the two
// replicas: 20% disorder, 20% revised histories, 1% stables, 64-byte
// payloads.
func makeInputs(w *workload, seed int64, events int) *inputs {
	sc := gen.NewScript(gen.Config{
		Events:        events,
		Seed:          seed,
		EventDuration: w.eventDuration,
		Revisions:     0.2,
		PayloadBytes:  64,
	})
	in := &inputs{script: sc, keyOf: make(map[string]int32, len(sc.Histories))}
	for i, h := range sc.Histories {
		in.keyOf[h.P.Data] = int32(i)
	}
	for r := range in.reps {
		els := sc.Render(gen.RenderOptions{Seed: seed*7919 + int64(r) + 1, Disorder: 0.2})
		rep := &replica{els: els, offs: make([]int, 0, len(els)+1), insertAt: make([]int32, len(sc.Histories))}
		for i, e := range els {
			rep.offs = append(rep.offs, len(rep.frames))
			rep.frames = wire.AppendData(rep.frames, e)
			if e.Kind == temporal.KindInsert {
				rep.insertAt[in.keyOf[e.Payload.Data]] = int32(i)
			}
		}
		rep.offs = append(rep.offs, len(rep.frames))
		in.reps[r] = rep
	}
	return in
}

// eventsFor sizes a script so one replica holds about n elements: each
// history renders to its insert plus 0.22 revisions on average, and 1% of
// elements are followed by a stable.
func eventsFor(n int) int {
	return int(float64(n) / (1.221 * 1.01))
}
