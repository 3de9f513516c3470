package mits

// One benchmark per experiment of DESIGN.md's per-experiment index
// (E1–E24), each driving the hot path of the mechanism its figure or
// table depicts, plus the E27 observability baseline. `go test
// -bench=. -benchmem` regenerates the performance side of
// EXPERIMENTS.md; the experiment *tables* come from cmd/experiments.

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"mits/internal/atm"
	"mits/internal/baseline"
	"mits/internal/cache"
	"mits/internal/cluster"
	"mits/internal/conference"
	"mits/internal/courseware"
	"mits/internal/document"
	"mits/internal/facilitator"
	"mits/internal/faults"
	"mits/internal/hytime"
	"mits/internal/media"
	"mits/internal/mediastore"
	"mits/internal/mheg"
	"mits/internal/mheg/codec"
	"mits/internal/mheg/engine"
	"mits/internal/navigator"
	"mits/internal/obs"
	"mits/internal/obs/collect"
	"mits/internal/production"
	"mits/internal/sched"
	"mits/internal/school"
	"mits/internal/script"
	"mits/internal/sim"
	"mits/internal/transport"
)

func benchID(n uint32) mheg.ID { return mheg.ID{App: "bench", Num: n} }

func mustCompileATM(b *testing.B) *courseware.Compiled {
	b.Helper()
	out, err := courseware.CompileIMD(document.SampleATMCourse(), "atm")
	if err != nil {
		b.Fatal(err)
	}
	return out
}

func mustEncode(b *testing.B, enc codec.Encoding, o mheg.Object) []byte {
	b.Helper()
	data, err := enc.Encode(o)
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// BenchmarkE1Lifecycle — Fig 2.4: one complete object life cycle
// (encode → decode → new → run to finish → delete → destroy).
func BenchmarkE1Lifecycle(b *testing.B) {
	enc := codec.ASN1()
	src := mheg.NewVideoContent(benchID(1), "store/v.mpg", mheg.Size{W: 352, H: 240}, time.Second)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := enc.Encode(src)
		if err != nil {
			b.Fatal(err)
		}
		clock := sim.NewClock()
		e := engine.New(clock)
		id, err := e.Ingest(data)
		if err != nil {
			b.Fatal(err)
		}
		rt, err := e.NewRT(id, "stage")
		if err != nil {
			b.Fatal(err)
		}
		e.Run(rt)
		clock.Run()
		e.Delete(rt)
		e.Destroy(id)
	}
}

// BenchmarkE2Synchronization — Fig 2.6: compile and play a 16-object
// chained synchronization on virtual time.
func BenchmarkE2Synchronization(b *testing.B) {
	ids := make([]mheg.ID, 16)
	models := make([]mheg.Object, 16)
	for i := range ids {
		ids[i] = benchID(uint32(i + 1))
		a, err := mheg.NewAudioContent(ids[i], media.CodingWAV, "x", time.Second, 70)
		if err != nil {
			b.Fatal(err)
		}
		models[i] = a
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clock := sim.NewClock()
		e := engine.New(clock)
		for _, m := range models {
			e.AddModel(m)
		}
		action, links, err := sched.Chained{Sequence: ids}.Compile(benchID(1000))
		if err != nil {
			b.Fatal(err)
		}
		e.AddModel(action)
		for _, l := range links {
			e.AddModel(l)
			e.ArmLink(l.ID)
		}
		e.ApplyAction(action.ID)
		if clock.Run() != sim.Time(16*time.Second) {
			b.Fatal("chain did not span 16s")
		}
	}
}

// BenchmarkE3Interchange — Figs 2.7–2.9: coding a full courseware
// container in both notations.
func BenchmarkE3Interchange(b *testing.B) {
	out, err := courseware.CompileIMD(document.SampleATMCourse(), "atm")
	if err != nil {
		b.Fatal(err)
	}
	for _, enc := range []codec.Encoding{codec.ASN1(), codec.SGML()} {
		enc := enc
		data := mustEncode(b, enc, out.Container)
		b.Run(enc.Name()+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := enc.Encode(out.Container); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(enc.Name()+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := enc.Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4Pipeline — Fig 3.1: author → store → retrieve → present.
func BenchmarkE4Pipeline(b *testing.B) {
	doc := document.SampleATMCourse()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := courseware.CompileIMD(doc, "atm")
		if err != nil {
			b.Fatal(err)
		}
		data, err := codec.ASN1().Encode(out.Container)
		if err != nil {
			b.Fatal(err)
		}
		store := mediastore.New()
		if _, err := store.PutDocument("c", doc.Title, "asn1", data); err != nil {
			b.Fatal(err)
		}
		rec, err := store.GetDocument("c")
		if err != nil {
			b.Fatal(err)
		}
		clock := sim.NewClock()
		e := engine.New(clock)
		id, err := e.Ingest(rec.Data)
		if err != nil {
			b.Fatal(err)
		}
		rt, err := e.NewRT(out.Root, "main")
		if err != nil {
			b.Fatal(err)
		}
		e.Run(rt)
		clock.Run()
		_ = id
	}
}

// BenchmarkE5Layers — Fig 3.2: one course delivery through the full
// protocol stack over the simulated ATM network.
func BenchmarkE5Layers(b *testing.B) {
	out := mustCompileATM(b)
	payload := mustEncode(b, codec.ASN1(), out.Container)
	req := transport.EncodeGetDoc("c")
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		n := atm.New()
		user := n.AddHost("u")
		db := n.AddHost("d")
		sw := n.AddSwitch("s")
		n.Connect(user, sw, 155e6, 500*time.Microsecond)
		n.Connect(sw, db, 155e6, 500*time.Microsecond)
		store := mediastore.New()
		store.PutDocument("c", "t", "asn1", payload)
		mux := transport.NewMux()
		transport.RegisterStore(mux, store)
		sess, err := transport.OpenATMSession(n, user, db, mux, transport.ATMSessionOptions{ServiceTime: time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.CallOver(transport.MethodGetDoc, req); err != nil {
			b.Fatal(err)
		}
		sess.Close()
	}
}

// BenchmarkE6Processing — Figs 3.3–3.4: the storage phase's update
// cycle (publish, update, re-fetch).
func BenchmarkE6Processing(b *testing.B) {
	out := mustCompileATM(b)
	data := mustEncode(b, codec.ASN1(), out.Container)
	store := mediastore.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("c%d", i%64)
		if _, err := store.PutDocument(name, "t", "asn1", data, "network/atm"); err != nil {
			b.Fatal(err)
		}
		if _, err := store.GetDocument(name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7ClientServer — Fig 3.5: 8 concurrent navigator clients in
// closed loop against one server over ATM (5 rounds each).
func BenchmarkE7ClientServer(b *testing.B) {
	out := mustCompileATM(b)
	payload := mustEncode(b, codec.ASN1(), out.Container)
	req := transport.EncodeGetDoc("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := atm.New()
		n.BufferCells = 65536
		server := n.AddHost("db")
		sw := n.AddSwitch("sw")
		n.Connect(sw, server, 155e6, 500*time.Microsecond)
		store := mediastore.New()
		store.PutDocument("c", "t", "asn1", payload)
		mux := transport.NewMux()
		transport.RegisterStore(mux, store)
		served := 0
		for c := 0; c < 8; c++ {
			host := n.AddHost(fmt.Sprintf("u%d", c))
			n.Connect(host, sw, 155e6, 500*time.Microsecond)
			sess, err := transport.OpenATMSession(n, host, server, mux, transport.ATMSessionOptions{ServiceTime: 2 * time.Millisecond})
			if err != nil {
				b.Fatal(err)
			}
			var issue func(round int)
			issue = func(round int) {
				if round >= 5 {
					return
				}
				sess.Go(transport.MethodGetDoc, req, func(p []byte, err error) {
					if err == nil {
						served++
					}
					issue(round + 1)
				})
			}
			issue(0)
		}
		n.Clock().Run()
		if served != 40 {
			b.Fatalf("served %d/40", served)
		}
	}
}

// BenchmarkE8Authoring — Figs 4.1–4.2: compiling the sample document
// through the authoring layers.
func BenchmarkE8Authoring(b *testing.B) {
	doc := document.SampleATMCourse()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := courseware.CompileIMD(doc, "atm"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9Hypermedia — Fig 4.3: one navigation step (link firing +
// page switch) in the compiled hypermedia course.
func BenchmarkE9Hypermedia(b *testing.B) {
	out, err := courseware.CompileHyper(document.SampleHyperCourse(), "net")
	if err != nil {
		b.Fatal(err)
	}
	data := mustEncode(b, codec.ASN1(), out.Container)
	clock := sim.NewClock()
	e := engine.New(clock)
	if _, err := e.Ingest(data); err != nil {
		b.Fatal(err)
	}
	rt, err := e.NewRT(out.Root, "main")
	if err != nil {
		b.Fatal(err)
	}
	e.Run(rt)
	next := e.RTsOf(out.Objects["s1/next1"])[0]
	prev := e.RTsOf(out.Objects["s2/prev2"])[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			e.Select(next) // s1 → s2
		} else {
			e.Select(prev) // s2 → s1
		}
	}
}

// BenchmarkE10Scenario — Fig 4.4: full passive playback of the ATM
// course's pre-defined scenario (intro + cells scenes, 28s virtual).
func BenchmarkE10Scenario(b *testing.B) {
	out := mustCompileATM(b)
	data := mustEncode(b, codec.ASN1(), out.Container)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clock := sim.NewClock()
		e := engine.New(clock)
		if _, err := e.Ingest(data); err != nil {
			b.Fatal(err)
		}
		rt, err := e.NewRT(out.Root, "main")
		if err != nil {
			b.Fatal(err)
		}
		e.Run(rt)
		if clock.Run() < sim.Time(28*time.Second) {
			b.Fatal("scenario too short")
		}
	}
}

// BenchmarkE11ClassLibrary — Fig 4.5: instantiate and validate one of
// each basic library class.
func BenchmarkE11ClassLibrary(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		objs := []mheg.Object{
			mheg.NewVideoContent(benchID(1), "store/v.mpg", mheg.Size{W: 64, H: 128}, time.Second),
			mheg.NewImageContent(benchID(2), "store/i.jpg", mheg.Size{W: 640, H: 480}),
			mheg.NewTextContent(benchID(3), "text"),
			mheg.NewGenericValue(benchID(4), mheg.IntValue(42)),
			mheg.NewComposite(benchID(5), benchID(1), benchID(2)),
			mheg.NewScript(benchID(6), "mits-script", []byte("x")),
			mheg.OnSelect(benchID(7), benchID(3), mheg.Act(mheg.OpRun, benchID(1))),
			mheg.RunAll(benchID(8), benchID(1)),
			mheg.NewDescriptor(benchID(9), benchID(1)),
		}
		for _, o := range objs {
			if err := o.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE12CoursewareLib — Fig 4.6: build a button group and fire
// its click link.
func BenchmarkE12CoursewareLib(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clock := sim.NewClock()
		e := engine.New(clock)
		ids := courseware.NewIDAllocator("bench", 1)
		tgt := benchID(900)
		e.AddModel(mheg.NewImageContent(tgt, "store/t.jpg", mheg.Size{}))
		g := courseware.Button(ids, "Play", mheg.Act(mheg.OpNew, tgt), mheg.Act(mheg.OpRun, tgt))
		for _, o := range g.Objects {
			e.AddModel(o)
		}
		if _, err := e.NewRT(g.Root, "ui"); err != nil {
			b.Fatal(err)
		}
		e.Select(e.RTsOf(g.Objects[0].Base().ID)[0])
		if len(e.RTsOf(tgt)) != 1 {
			b.Fatal("click had no effect")
		}
	}
}

// BenchmarkE13Mediastore — Figs 5.1–5.2: content store/retrieve pairs.
func BenchmarkE13Mediastore(b *testing.B) {
	store := mediastore.New()
	blob := media.EncodeJPEG(640, 480, 13)
	b.ReportAllocs()
	b.SetBytes(int64(len(blob)))
	for i := 0; i < b.N; i++ {
		ref := fmt.Sprintf("store/img%d.jpg", i%256)
		if err := store.PutContent(ref, "JPEG", blob); err != nil {
			b.Fatal(err)
		}
		if _, err := store.GetContent(ref); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14Session — Figs 5.3–5.7: a complete learning session
// (register → enroll → classroom → interact → exit).
func BenchmarkE14Session(b *testing.B) {
	sys := NewSystem("bench school")
	doc, err := SampleATMCourse()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.PublishInteractive(doc, CourseInfo{
		Code: "C1", Name: "ATM", Program: "Eng", DocName: "atm-course",
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nav := sys.NewNavigator()
		if _, err := nav.Register(school.Profile{Name: "s"}); err != nil {
			b.Fatal(err)
		}
		if err := nav.Enroll("C1"); err != nil {
			b.Fatal(err)
		}
		if err := nav.StartCourse("C1"); err != nil {
			b.Fatal(err)
		}
		nav.Clock().RunFor(9 * time.Second)
		if err := nav.Click("Show cell diagram"); err != nil {
			b.Fatal(err)
		}
		if err := nav.ExitCourse(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE15MediaFormats — Table 5.1: synthesizing one minute of
// each playback format.
func BenchmarkE15MediaFormats(b *testing.B) {
	b.Run("WAV", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data := media.EncodeWAV(time.Minute, 0, 0)
			b.SetBytes(int64(len(data)))
		}
	})
	b.Run("MIDI", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data := media.EncodeMIDI(time.Minute)
			b.SetBytes(int64(len(data)))
		}
	})
	b.Run("MPEG", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data := media.EncodeMPEG(media.VideoParams{Duration: time.Minute, Seed: uint64(i)})
			b.SetBytes(int64(len(data)))
		}
	})
	b.Run("AVI", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data := media.EncodeAVI(media.VideoParams{Duration: time.Minute, Seed: uint64(i)})
			b.SetBytes(int64(len(data)))
		}
	})
}

// BenchmarkE16Baselines — §1.3: the four-model comparison over 500
// student arrivals.
func BenchmarkE16Baselines(b *testing.B) {
	models := []baseline.Model{
		baseline.Broadcasting{Period: 7 * 24 * time.Hour},
		baseline.CDROM{Shipping: 72 * time.Hour},
		baseline.Narrowband{Bandwidth: 28800, RTT: 200 * time.Millisecond},
		baseline.Broadband{Bandwidth: 155e6, RTT: 5 * time.Millisecond},
	}
	rng := sim.NewRNG(16)
	arrivals := make([]sim.Time, 500)
	for i := range arrivals {
		arrivals[i] = sim.Time(rng.Intn(int(7 * 24 * time.Hour)))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := baseline.Compare(models, arrivals, 1<<20)
		if len(rows) != 4 {
			b.Fatal("bad comparison")
		}
	}
}

// BenchmarkE17Broadband — §3.3: streaming a 2-second MPEG clip over a
// reserved contract across a congested bottleneck.
func BenchmarkE17Broadband(b *testing.B) {
	clip := media.EncodeMPEG(media.VideoParams{Duration: 2 * time.Second, BitRate: 1.5e6, Seed: 17})
	b.ReportAllocs()
	b.SetBytes(int64(len(clip)))
	for i := 0; i < b.N; i++ {
		n := atm.New()
		n.BufferCells = 96
		srv := n.AddHost("s")
		cli := n.AddHost("c")
		x1 := n.AddHost("x1")
		x2 := n.AddHost("x2")
		s1 := n.AddSwitch("sw1")
		s2 := n.AddSwitch("sw2")
		n.Connect(srv, s1, 155e6, 200*time.Microsecond)
		n.Connect(x1, s1, 155e6, 200*time.Microsecond)
		n.Connect(s1, s2, 10e6, 200*time.Microsecond)
		n.Connect(s2, cli, 155e6, 200*time.Microsecond)
		n.Connect(s2, x2, 155e6, 200*time.Microsecond)
		flood, err := n.Open(x1, x2, atm.UBRContract(30e6), atm.OpenOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 2000; j++ {
			flood.Send(make([]byte, 4000))
		}
		stats, err := navigator.StreamVideo(n, srv, cli, atm.VBRContract(2e6, 8e6, 200), clip, 500*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		if stats.MissRate() > 0.01 {
			b.Fatalf("reserved stream missed %.0f%%", 100*stats.MissRate())
		}
	}
}

// BenchmarkE18ContentSeparation — §3.4.2: scenario fetch cost,
// referenced vs embedded.
func BenchmarkE18ContentSeparation(b *testing.B) {
	out := mustCompileATM(b)
	store := mediastore.New()
	if _, err := (&production.Center{}).ProduceForCourse(out, store); err != nil {
		b.Fatal(err)
	}
	embedded := mheg.NewContainer(out.Container.ID)
	embedded.Info = out.Container.Info
	for _, item := range out.Container.Items {
		if c, ok := item.(*mheg.Content); ok && c.Referenced() {
			rec, err := store.GetContent(c.ContentRef)
			if err != nil {
				b.Fatal(err)
			}
			cp := *c
			cp.Inline = rec.Data
			cp.ContentRef = ""
			embedded.Items = append(embedded.Items, &cp)
			continue
		}
		embedded.Items = append(embedded.Items, item)
	}
	b.Run("referenced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := codec.ASN1().Encode(out.Container)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
		}
	})
	b.Run("embedded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := codec.ASN1().Encode(embedded)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
		}
	})
}

// BenchmarkE19RuntimeReuse — §2.2.2.2: five presentations of one model
// object through the content cache.
func BenchmarkE19RuntimeReuse(b *testing.B) {
	blob := media.EncodeMPEG(media.VideoParams{Duration: time.Second, Seed: 19})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clock := sim.NewClock()
		fetches := 0
		e := engine.New(clock, engine.WithResolver(engine.ResolverFunc(func(string) ([]byte, error) {
			fetches++
			return blob, nil
		})))
		c := mheg.NewVideoContent(benchID(1), "store/shared.mpg", mheg.Size{}, time.Second)
		e.AddModel(c)
		for k := 0; k < 5; k++ {
			rt, err := e.NewRT(benchID(1), "ctx")
			if err != nil {
				b.Fatal(err)
			}
			e.Run(rt)
			clock.Run()
		}
		if fetches != 1 {
			b.Fatalf("fetches=%d", fetches)
		}
	}
}

// BenchmarkE20Facilitation — §1.3.1: 60 questions through a 3-line
// phone queue and a 12-consultant facilitator pool.
func BenchmarkE20Facilitation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, consultants := range []int{3, 12} {
			clock := sim.NewClock()
			rng := sim.NewRNG(20)
			desk, err := facilitator.NewHelpDesk(clock, consultants, func() time.Duration {
				return time.Duration(rng.Exp(float64(2 * time.Minute)))
			})
			if err != nil {
				b.Fatal(err)
			}
			arr := sim.NewRNG(21)
			at := sim.Zero
			for q := 0; q < 60; q++ {
				at = at.Add(time.Duration(arr.Exp(float64(20 * time.Second))))
				clock.At(at, func(sim.Time) { desk.Ask(&facilitator.Ticket{Student: "s"}) })
			}
			clock.Run()
			if desk.Answered != 60 {
				b.Fatal("questions lost")
			}
		}
	}
}

// BenchmarkE21HyTimePipeline — §2.3: parse HyTime, convert, compile to
// MHEG, encode for interchange.
func BenchmarkE21HyTimePipeline(b *testing.B) {
	src := hytime.SampleCourse().Markup()
	b.ReportAllocs()
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		doc, err := hytime.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		imd, err := hytime.ToIMD(doc)
		if err != nil {
			b.Fatal(err)
		}
		out, err := courseware.CompileIMD(imd, "hy")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := codec.ASN1().Encode(out.Container); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE22ScriptedTeaching — Fig 2.5: one full adaptive-lesson
// script run (teach, quiz, remediate) on virtual time.
func BenchmarkE22ScriptedTeaching(b *testing.B) {
	src := []byte("run lecture\nwaitfor lecture finished\nset tries 0\nlabel ask\nadd tries 1\nrun quiz\nwait 2s\nif reply(quiz) == \"53\" goto done\nif tries >= 2 goto done\ngoto ask\nlabel done\nstop\n")
	prog, err := script.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clock := sim.NewClock()
		e := engine.New(clock)
		lecture, err := mheg.NewAudioContent(benchID(1), media.CodingWAV, "lec", 5*time.Second, 70)
		if err != nil {
			b.Fatal(err)
		}
		e.AddModel(lecture)
		e.AddModel(mheg.NewTextContent(benchID(2), "quiz"))
		host := script.NewEngineHost(e, map[string]mheg.ID{"lecture": benchID(1), "quiz": benchID(2)})
		inst := script.Start(host, prog)
		clock.At(sim.Time(6*time.Second), func(sim.Time) {
			e.SetSelection(e.RTsOf(benchID(2))[0], mheg.StringValue("53"))
		})
		clock.Run()
		if !inst.Done() || inst.Err() != nil {
			b.Fatalf("script err=%v", inst.Err())
		}
	}
}

// BenchmarkE23QoSAblation — the priority-scheduling half of the
// ablation: a reserved stream through a congested switch with per-class
// queueing.
func BenchmarkE23QoSAblation(b *testing.B) {
	clip := media.EncodeMPEG(media.VideoParams{Duration: 2 * time.Second, BitRate: 1.5e6, Seed: 23})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := atm.New()
		n.BufferCells = 96
		srv := n.AddHost("s")
		cli := n.AddHost("c")
		x1 := n.AddHost("x1")
		x2 := n.AddHost("x2")
		s1 := n.AddSwitch("sw1")
		s2 := n.AddSwitch("sw2")
		n.Connect(srv, s1, 155e6, 200*time.Microsecond)
		n.Connect(x1, s1, 155e6, 200*time.Microsecond)
		n.Connect(s1, s2, 10e6, 200*time.Microsecond)
		n.Connect(s2, cli, 155e6, 200*time.Microsecond)
		n.Connect(s2, x2, 155e6, 200*time.Microsecond)
		flood, err := n.Open(x1, x2, atm.UBRContract(30e6), atm.OpenOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 2000; j++ {
			flood.Send(make([]byte, 4000))
		}
		stats, err := navigator.StreamVideo(n, srv, cli, atm.VBRContract(2e6, 8e6, 200), clip, 500*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		if stats.MissRate() > 0.01 {
			b.Fatal("priority queueing failed")
		}
	}
}

// BenchmarkE24Conferencing — §5.2.1: a 5-second reserved A/V call.
func BenchmarkE24Conferencing(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := atm.New()
		a := n.AddHost("a")
		c := n.AddHost("b")
		sw := n.AddSwitch("sw")
		n.Connect(a, sw, 155e6, 500*time.Microsecond)
		n.Connect(sw, c, 155e6, 500*time.Microsecond)
		s, err := conference.Dial(n, a, c, conference.Options{Duration: 5 * time.Second, VideoEnabled: true})
		if err != nil {
			b.Fatal(err)
		}
		n.Clock().Run()
		if !s.Usable() {
			b.Fatal("idle call unusable")
		}
	}
}

// BenchmarkE27ObsBaseline — the observability baseline: real TCP
// Get_Selected_Doc round trips with the obs instrumentation live, so
// the reported percentiles include every counter increment and span
// the production path pays. Besides the usual ns/op it writes
// BENCH_obs.json with the transport client/server latency percentiles
// accumulated by the obs histograms (check.sh runs it to refresh the
// baseline recorded in EXPERIMENTS.md).
func BenchmarkE27ObsBaseline(b *testing.B) {
	sys := NewSystem("bench school")
	if err := publishDoc(sys); err != nil {
		b.Fatal(err)
	}
	srv, bound, err := sys.ServeTCP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := transport.DialTCP(bound)
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	db := transport.DBClient{C: cli}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.GetSelectedDoc("atm-course"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	out := map[string]any{"benchmark": "E27ObsBaseline", "rpcs": b.N}
	for key, name := range map[string]string{
		"transport_client_latency": "transport_client_latency_ns",
		"transport_server_latency": "transport_server_latency_ns",
	} {
		s := obs.GetHistogram(name, "method", transport.MethodGetDoc).Snapshot()
		out[key] = map[string]int64{
			"count": s.Count, "p50_ns": int64(s.P50), "p95_ns": int64(s.P95), "p99_ns": int64(s.P99),
		}
		b.ReportMetric(float64(int64(s.P50)), key+"_p50_ns")
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_obs.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// publishDoc publishes the sample ATM course for E27.
func publishDoc(sys *System) error {
	doc, err := SampleATMCourse()
	if err != nil {
		return err
	}
	_, err = sys.PublishInteractive(doc, CourseInfo{
		Code: "ELG5121", Name: "ATM Technology", Program: "Engineering",
		DocName: "atm-course", Sessions: 4, Keywords: []string{"network/atm"},
	})
	return err
}

// BenchmarkE28FaultRecovery — the resilience baseline: resilient
// database clients (deadline + retry + breaker) calling through fault
// injectors, one stack per scenario. Each iteration issues one call
// per scenario; the reported percentiles are whole-call latencies
// including every retry and backoff the recovery needed. Besides
// ns/op it writes BENCH_faults.json with per-scenario p50/p99 recovery
// latency (scripts/bench_faults.sh runs it to refresh the baseline).
func BenchmarkE28FaultRecovery(b *testing.B) {
	scens := []struct {
		name string
		scen faults.Scenario
	}{
		{"clean", faults.Scenario{}},
		{"lossy", faults.Scenario{DropProb: 0.3}},
		{"stall", faults.Scenario{StallProb: 0.3, StallFor: 80 * time.Millisecond}},
		{"truncate", faults.Scenario{TruncProb: 0.3}},
	}
	type stack struct {
		name string
		db   transport.DBClient
		lat  sim.Series
	}
	stacks := make([]*stack, 0, len(scens))
	for i, sc := range scens {
		store := mediastore.New()
		if _, err := store.PutDocument("doc", "Doc", "text", []byte("body")); err != nil {
			b.Fatal(err)
		}
		mux := transport.NewMux()
		transport.RegisterStore(mux, store)
		srv := transport.NewTCPServer(mux)
		srv.ConnTimeout = 200 * time.Millisecond
		inj := faults.NewInjector(sc.scen, uint64(0xBE7C+17*i))
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.Serve(inj.WrapListener(lis)); err != nil {
			b.Fatal(err)
		}
		defer srv.Close() //mits:allow errdrop benchmark teardown
		addr := lis.Addr().String()
		dial := func() (transport.Client, error) {
			conn, derr := inj.Dial(addr)
			if derr != nil {
				return nil, derr
			}
			c := transport.NewTCPClient(conn)
			c.Timeout = 50 * time.Millisecond
			return c, nil
		}
		db, _ := transport.NewResilientDBClient(sc.name, dial, transport.RetryPolicy{
			Attempts: 4, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond,
		}, 8, 100*time.Millisecond, uint64(0xBE7C+17*i))
		defer db.C.Close() //mits:allow errdrop benchmark teardown
		stacks = append(stacks, &stack{name: sc.name, db: db})
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range stacks {
			start := time.Now()
			st.db.GetListDoc() //mits:allow errdrop typed failures under injected faults are expected
			st.lat.AddDuration(time.Since(start))
		}
	}
	b.StopTimer()

	out := map[string]any{"benchmark": "E28FaultRecovery", "calls_per_scenario": b.N}
	for _, st := range stacks {
		out[st.name] = map[string]int64{
			"count":  int64(st.lat.N()),
			"p50_ns": int64(st.lat.Percentile(50)),
			"p99_ns": int64(st.lat.Percentile(99)),
		}
		b.ReportMetric(st.lat.Percentile(99), st.name+"_p99_ns")
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_faults.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPipelinedThroughput — the E29 pipelining + content-cache
// baseline: parallel GetContent against one multiplexed TCP connection
// at 1, 8 and 64 callers (1 caller IS the serialized baseline — one
// call in flight at a time, exactly what the pre-pipelining client
// enforced with its big lock), then the cache hit path against the
// fetch-miss path. The server pays a modeled per-request service
// latency (storeServiceDelay: the seek + first-byte time of a remote
// MEDIASTORE across the broadband network — on loopback the wire is
// free, which no deployment's is), because that wait is precisely what
// pipelining overlaps: the serial client pays it once per call,
// the multiplexed client amortizes it across everything in flight.
// Besides the usual ns/op it writes BENCH_pipeline.json
// (scripts/bench_pipeline.sh runs it); the acceptance shape is ≥3×
// RPC throughput at 8 callers vs serial and ≥10× latency reduction
// for a cache hit vs a miss.
func BenchmarkPipelinedThroughput(b *testing.B) {
	const storeServiceDelay = time.Millisecond
	content := make([]byte, 16<<10)
	for i := range content {
		content[i] = byte(i)
	}
	const ref = "bench/clip.mpg"
	store := mediastore.New()
	if err := store.PutContent(ref, "mpeg", content); err != nil {
		b.Fatal(err)
	}
	mux := transport.NewMux()
	transport.RegisterStore(mux, store)
	slowStore := transport.HandlerFunc(func(method string, payload []byte) ([]byte, error) {
		time.Sleep(storeServiceDelay) //mits:allow sleepless modeled store service latency under benchmark
		return mux.Handle(method, payload)
	})
	srv := transport.NewTCPServer(slowStore)
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := transport.DialTCP(bound)
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	db := transport.DBClient{C: cli}

	throughput := map[int]float64{}
	for _, callers := range []int{1, 8, 64} {
		callers := callers
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			per := (b.N + callers - 1) / callers
			errc := make(chan error, callers)
			b.SetBytes(int64(len(content)))
			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if _, err := db.GetContent(ref); err != nil {
							errc <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			select {
			case err := <-errc:
				b.Fatal(err)
			default:
			}
			thr := float64(per*callers) / elapsed.Seconds()
			b.ReportMetric(thr, "rpcs/sec")
			throughput[callers] = thr
		})
	}

	// Cache hit vs fetch miss: the cached client warmed once, against
	// the uncached client paying the full network fetch every call.
	cached := db.WithContentCache(cache.New("bench-pipeline", 64<<20))
	var missNS, hitNS float64
	b.Run("cache=miss", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if _, err := db.GetContent(ref); err != nil {
				b.Fatal(err)
			}
		}
		missNS = float64(time.Since(start).Nanoseconds()) / float64(b.N)
	})
	if _, err := cached.GetContent(ref); err != nil {
		b.Fatal(err)
	}
	b.Run("cache=hit", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if _, err := cached.GetContent(ref); err != nil {
				b.Fatal(err)
			}
		}
		hitNS = float64(time.Since(start).Nanoseconds()) / float64(b.N)
	})

	out := map[string]any{
		"benchmark":     "E29PipelinedThroughput",
		"content_bytes": len(content),
		"rpcs_per_sec": map[string]float64{
			"1": throughput[1], "8": throughput[8], "64": throughput[64],
		},
		"speedup_8_callers_vs_serial": throughput[8] / throughput[1],
		"cache_miss_ns":               missNS,
		"cache_hit_ns":                hitNS,
		"cache_hit_speedup":           missNS / hitNS,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_pipeline.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// mergeBenchJSON folds add into the JSON object at path, creating the
// file if absent — so benchmarks sharing one output file (E27 writes
// BENCH_obs.json fresh, the E30 benchmarks annotate it) compose under
// any -bench filter.
func mergeBenchJSON(b *testing.B, path string, add map[string]any) {
	b.Helper()
	out := map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &out); err != nil {
			out = map[string]any{}
		}
	}
	for k, v := range add {
		out[k] = v
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkE30ExportOverhead prices the trace pipeline on the E29
// workload: 8 pipelined callers fetching content from a store paying a
// modeled 1 ms service latency, with span export disabled, shipping to
// a discard sink, and shipping to a live collector over TCP. The
// acceptance bound is <5% throughput overhead for the *exporter* — the
// node-side cost of leaving the flight recorder on in production,
// where the collector runs on the ops site, not on the node. The
// co-located full-pipeline fraction (exporter plus collector decode
// and assembly contending for the same CPUs) is measured and reported
// alongside; on a single-CPU host it is materially higher because
// every collector cycle comes straight out of delivery throughput.
// Both fractions are merged into BENCH_obs.json next to the E27
// latency baseline.
func BenchmarkE30ExportOverhead(b *testing.B) {
	const storeServiceDelay = time.Millisecond
	const callers = 8
	const ref = "bench/clip.mpg"
	store := mediastore.New()
	if err := store.PutContent(ref, "mpeg", make([]byte, 16<<10)); err != nil {
		b.Fatal(err)
	}
	mux := transport.NewMux()
	transport.RegisterStore(mux, store)
	slowStore := transport.HandlerFunc(func(method string, payload []byte) ([]byte, error) {
		time.Sleep(storeServiceDelay) //mits:allow sleepless modeled store service latency under benchmark
		return mux.Handle(method, payload)
	})
	srv := transport.NewTCPServer(slowStore)
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := transport.DialTCP(bound)
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	db := transport.DBClient{C: cli}

	runN := func(b *testing.B, n int) float64 {
		per := (n + callers - 1) / callers
		errc := make(chan error, callers)
		start := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if _, err := db.GetContent(ref); err != nil {
						errc <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		select {
		case err := <-errc:
			b.Fatal(err)
		default:
		}
		return float64(per*callers) / elapsed.Seconds()
	}

	// CompleteAfter is short so the collector's finalize work (sort,
	// tree assembly, critical path) lands inside the collector phase
	// that produced it; at the production default of 1s it lands in the
	// NEXT round's baseline phase instead, deflating the off throughput
	// and corrupting both overhead fractions. The explicit Sweep(0)
	// between phases below drains the remainder outside any timed
	// window.
	col := collect.NewCollector(collect.RetainPolicy{SampleRate: 0, CompleteAfter: 50 * time.Millisecond})
	defer col.Close()
	col.Start(50 * time.Millisecond)
	colMux := transport.NewMux()
	col.Register(colMux)
	colSrv := transport.NewTCPServer(colMux)
	colAddr, err := colSrv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer colSrv.Close()

	// Discard sink: accepts obs.Export frames and drops the payload.
	// Spans still pay their full node-side freight (capture, enqueue,
	// encode, TCP ship) but none of the collector's decode/assembly —
	// the production topology, where the collector is another site.
	discardMux := transport.NewMux()
	discardMux.Register(transport.MethodObsExport, transport.HandlerFunc(func(string, []byte) ([]byte, error) {
		return nil, nil
	}))
	discardSrv := transport.NewTCPServer(discardMux)
	discardAddr, err := discardSrv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer discardSrv.Close()

	// Two long-lived exporters, as production runs them — one wired to
	// the discard sink, one to the live collector — toggled per phase
	// via Attach/Detach. Building a fresh exporter per phase (queue
	// allocation, TCP dial, cold paths) charges start-up costs to the
	// overhead being measured; a real node pays them once per process.
	discardExp := collect.StartExporter(obs.Default, collect.Dial(discardAddr), collect.ExporterOptions{Site: "bench"})
	discardExp.Detach()
	defer discardExp.Close()
	colExp := collect.StartExporter(obs.Default, collect.Dial(colAddr), collect.ExporterOptions{Site: "bench"})
	colExp.Detach()
	defer colExp.Close()

	withExporter := func(exporter *collect.Exporter, n int) float64 {
		exporter.Attach()
		thr := runN(b, n)
		exporter.Detach()
		exporter.Flush()
		return thr
	}
	frac := func(off, on float64) float64 {
		if off > 0 && on < off {
			return (off - on) / off
		}
		return 0
	}

	// Interleaved rounds (off → discard → collector), scored by the
	// median of per-round overheads. A single off phase followed by a
	// single on phase confounds the export cost with ambient drift — on
	// a small shared host, two identical phases minutes apart can differ
	// by more than the quantity under test. Adjacent phases cancel the
	// drift; the median discards the odd round a neighbor stomped on.
	const rounds = 5
	iters := b.N / rounds
	if iters < callers {
		iters = callers
	}
	var offs, ons, expOv, pipeOv []float64
	b.ResetTimer()
	for r := 0; r < rounds; r++ {
		off := runN(b, iters)
		discard := withExporter(discardExp, iters)
		on := withExporter(colExp, iters)
		// Finalize everything still pending before the next round's
		// baseline phase starts, so no collector work leaks into it.
		col.Sweep(0)
		offs, ons = append(offs, off), append(ons, on)
		expOv = append(expOv, frac(off, discard))
		pipeOv = append(pipeOv, frac(off, on))
	}
	b.StopTimer()

	off, on := median(offs), median(ons)
	exporterOv, pipelineOv := median(expOv), median(pipeOv)
	b.ReportMetric(off, "rpcs/sec_off")
	b.ReportMetric(on, "rpcs/sec_on")
	b.ReportMetric(exporterOv*100, "exporter_overhead_%")
	b.ReportMetric(pipelineOv*100, "colocated_overhead_%")
	mergeBenchJSON(b, "BENCH_obs.json", map[string]any{
		"export_overhead": map[string]any{
			"benchmark":                   "E30ExportOverhead",
			"callers":                     callers,
			"rounds":                      rounds,
			"rpcs_per_sec_off":            off,
			"rpcs_per_sec_on":             on,
			"overhead_fraction":           exporterOv,
			"colocated_overhead_fraction": pipelineOv,
			"acceptance_sub_5pc":          exporterOv < 0.05,
			"note":                        "overhead_fraction is the node-side exporter cost (collector off-box, as deployed); colocated_overhead_fraction adds the collector sharing this host's CPUs",
		},
	})
}

// median of a small sample; averages the middle pair on even sizes.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// BenchmarkE30CollectorAssembly prices the collector's side of the
// pipeline: batches of four-hop traces added directly (no network),
// measuring assembly + tail-sampling + critical-path throughput in
// spans/sec. Merged into BENCH_obs.json.
func BenchmarkE30CollectorAssembly(b *testing.B) {
	col := collect.NewCollector(collect.RetainPolicy{SlowThreshold: time.Hour, SampleRate: 0})
	defer col.Close()
	mk := func(trace, id, parent uint64, kind string, dur time.Duration) collect.SpanRecord {
		return collect.SpanRecord{
			Trace: trace, ID: id, Parent: parent, Name: "db.GetContent", Kind: kind,
			Site: "bench", StartNS: int64(id), DurNS: int64(dur),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace := uint64(i + 1)
		col.Add(collect.Batch{Site: "bench", Spans: []collect.SpanRecord{
			mk(trace, 1, 0, "client", 4*time.Millisecond),
			mk(trace, 2, 1, "server", 3*time.Millisecond),
			mk(trace, 3, 2, "client", 2*time.Millisecond),
			mk(trace, 4, 3, "server", time.Millisecond),
		}})
	}
	col.Sweep(0)
	b.StopTimer()
	spansPerSec := float64(b.N*4) / b.Elapsed().Seconds()
	b.ReportMetric(spansPerSec, "spans/sec")
	mergeBenchJSON(b, "BENCH_obs.json", map[string]any{
		"collector_assembly": map[string]any{
			"benchmark":     "E30CollectorAssembly",
			"spans_per_sec": spansPerSec,
		},
	})
}

// BenchmarkE31ClusterAvailability — the cluster availability/latency
// baseline of DESIGN §12: a 2-shard cluster (primary + 2 read replicas
// per shard, real TCP store nodes) serving keyed reads through the
// health-aware router at three damage levels — healthy, one replica
// down per shard, two replicas down per shard (primary-only). Each
// stage gets a short unmeasured warm-up so breakers trip and the
// health ordering settles (steady-state routing is what deployments
// run in), then b.N measured reads. Besides ns/op it writes
// BENCH_cluster.json with per-stage p50/p99 read latency and
// availability, plus the two acceptance bits: 100% availability with
// one replica down, and degraded p99 within 3x the healthy baseline
// (scripts/bench_cluster.sh runs it to refresh the numbers).
func BenchmarkE31ClusterAvailability(b *testing.B) {
	const (
		shards      = 2
		replicas    = 3 // nodes per shard: primary + 2 read replicas
		seedCourses = 8
	)
	nodes := make([][]*cluster.StoreNode, shards)
	cfg := cluster.Config{
		Policy: transport.RetryPolicy{
			Attempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
		},
		BreakerThreshold: 3,
		BreakerCooldown:  60 * time.Millisecond,
		Seed:             0xE31BE,
	}
	for i := 0; i < shards; i++ {
		var sc cluster.ShardConfig
		for j := 0; j < replicas; j++ {
			name := fmt.Sprintf("bench/s%d/n%d", i, j)
			n, err := cluster.StartStoreNode(name, faults.Scenario{}, uint64(0xE31BE+31*i+j))
			if err != nil {
				b.Fatal(err)
			}
			defer n.Close() //mits:allow errdrop benchmark teardown
			nodes[i] = append(nodes[i], n)
			sc.Replicas = append(sc.Replicas, cluster.ReplicaConfig{Name: name, Dial: n.Dialer(100 * time.Millisecond)})
		}
		cfg.Shards = append(cfg.Shards, sc)
	}
	router, err := cluster.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer router.Close() //mits:allow errdrop benchmark teardown
	db := transport.DBClient{C: transport.Loopback{H: router}}

	refs := make([]string, seedCourses)
	for i := range refs {
		refs[i] = fmt.Sprintf("store/bench-course-%02d.mpg", i)
		if err := db.PutContent(refs[i], "mpeg", []byte(fmt.Sprintf("frames-%02d", i))); err != nil {
			b.Fatal(err)
		}
	}
	if !router.WaitConverged(5 * time.Second) {
		b.Fatalf("seed replication never converged: backlog %d", router.Backlog())
	}

	type stage struct {
		down      int
		lat       sim.Series
		ok, total int
	}
	stages := []*stage{{down: 0}, {down: 1}, {down: 2}}
	b.ReportAllocs()
	b.ResetTimer()
	for _, st := range stages {
		// Damage is cumulative: stage N partitions the N-th read replica
		// of every shard.
		if st.down > 0 {
			for _, shard := range nodes {
				shard[st.down].Partition(true)
			}
		}
		b.StopTimer()
		for i := 0; i < 16; i++ { // warm-up: let breakers open, health order settle
			db.GetContent(refs[i%len(refs)]) //mits:allow errdrop warm-up outcome recorded by the measured loop
		}
		b.StartTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			_, rerr := db.GetContent(refs[i%len(refs)])
			st.lat.AddDuration(time.Since(start))
			st.total++
			if rerr == nil {
				st.ok++
			}
		}
	}
	b.StopTimer()
	for _, shard := range nodes {
		shard[1].Partition(false)
		shard[2].Partition(false)
	}

	out := map[string]any{"benchmark": "E31ClusterAvailability", "reads_per_stage": b.N,
		"topology": fmt.Sprintf("%d shards x (primary+%d replicas)", shards, replicas-1)}
	for _, st := range stages {
		avail := 0.0
		if st.total > 0 {
			avail = float64(st.ok) / float64(st.total)
		}
		key := fmt.Sprintf("replicas_down_%d", st.down)
		out[key] = map[string]any{
			"p50_ns":       int64(st.lat.Percentile(50)),
			"p99_ns":       int64(st.lat.Percentile(99)),
			"ok":           st.ok,
			"failed":       st.total - st.ok,
			"availability": avail,
		}
		b.ReportMetric(st.lat.Percentile(99), fmt.Sprintf("down%d_p99_ns", st.down))
	}
	// The acceptance bits E31 is gated on: no failed reads with one
	// replica down per shard, and its p99 within 3x the healthy p99.
	oneDown := stages[1]
	out["accept_full_availability_one_down"] = oneDown.ok == oneDown.total
	out["accept_p99_within_3x_healthy"] = oneDown.lat.Percentile(99) <= 3*stages[0].lat.Percentile(99)
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_cluster.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// methodGobGetContent is the E32 seed baseline's wire op: GetContent
// as the courseware database served it before its payloads moved to
// internal/wire — a gob-encoded {Ref} request, a borrowed store read
// and a gob-encoded record back. Only the benchmark registers it, so
// the seed leg keeps measuring the seed path.
const methodGobGetContent = "bench.GobGetContent"

type gobGetContentReq struct{ Ref string }

func registerGobGetContent(mux *transport.Mux, store *mediastore.Store) {
	mux.Register(methodGobGetContent, func(_ string, payload []byte) ([]byte, error) {
		var req gobGetContentReq
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&req); err != nil {
			return nil, err
		}
		rec, err := store.GetContentBorrow(req.Ref)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}

// gobGetContent is the seed client call: a pooled RPC whose response
// buffer is recycled once gob has copied the record out of it.
func gobGetContent(c transport.Client, ref string) (*mediastore.ContentRecord, error) {
	var req bytes.Buffer
	if err := gob.NewEncoder(&req).Encode(gobGetContentReq{Ref: ref}); err != nil {
		return nil, err
	}
	payload, rel, err := transport.CallInTracePooled(c, obs.SpanContext{}, methodGobGetContent, req.Bytes())
	if err != nil {
		return nil, err
	}
	var rec mediastore.ContentRecord
	err = gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec)
	if rel != nil {
		rel()
	}
	return &rec, err
}

// BenchmarkTransportSaturation — E32, the hardware-limited transport
// gate. Unlike E29 there is NO modeled store latency: the server
// answers as fast as the host can drive the wire, so the numbers are
// the transport's own ceiling. Three questions, one answer file
// (merged into BENCH_pipeline.json under "saturation"):
//
//   - pooling: 64 callers fetching a 64 KB object over the chunked
//     binary GetContentStream path, striped over 1 connection vs the
//     default 4-connection pool (rpc/s, MB/s, allocs/op);
//   - allocation-free decode: allocs per cache-hit GetContent, which
//     the shared-record handoff drops to zero copies;
//   - fairness: the p99 of concurrent 1 KB calls while an 8 MB object
//     streams down the same connection, against the idle p99 — chunks
//     bound how long the big transfer may occupy the wire.
//
// The host context matters for the pool line: on a single-CPU box the
// transport is CPU-bound, so striping buys contention relief, not
// parallel syscalls — the JSON records NumCPU alongside the ratio.
func BenchmarkTransportSaturation(b *testing.B) {
	const (
		ref      = "bench/sat-64k.mpg"
		smallRef = "bench/sat-1k.txt"
		bigRef   = "bench/sat-8m.mpg"
		callers  = 64
	)
	content := make([]byte, 64<<10)
	for i := range content {
		content[i] = byte(i)
	}
	store := mediastore.New()
	if err := store.PutContent(ref, "mpeg", content); err != nil {
		b.Fatal(err)
	}
	if err := store.PutContent(smallRef, "ascii", make([]byte, 1<<10)); err != nil {
		b.Fatal(err)
	}
	if err := store.PutContent(bigRef, "mpeg", make([]byte, 8<<20)); err != nil {
		b.Fatal(err)
	}
	mux := transport.NewMux()
	transport.RegisterStore(mux, store)
	registerGobGetContent(mux, store)
	srv := transport.NewTCPServer(mux)
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	saturate := func(b *testing.B, fetch func() error) float64 {
		per := (b.N + callers - 1) / callers
		errc := make(chan error, callers)
		b.SetBytes(int64(len(content)))
		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if err := fetch(); err != nil {
						errc <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		b.StopTimer()
		select {
		case err := <-errc:
			b.Fatal(err)
		default:
		}
		thr := float64(per*callers) / elapsed.Seconds()
		b.ReportMetric(thr, "rpcs/sec")
		b.ReportMetric(thr*float64(len(content))/1e6, "MB/sec")
		return thr
	}

	// The seed-shaped baseline: gob-coded GetContent over one
	// connection — what every fetch paid before the chunked stream.
	var gobRPCs float64
	b.Run(fmt.Sprintf("gob/conns=1/callers=%d", callers), func(b *testing.B) {
		base, err := transport.DialTCP(bound)
		if err != nil {
			b.Fatal(err)
		}
		defer base.Close()
		gobRPCs = saturate(b, func() error { _, err := gobGetContent(base, ref); return err })
	})

	rpcs := map[int]float64{}
	for _, conns := range []int{1, transport.DefaultPoolConns} {
		conns := conns
		b.Run(fmt.Sprintf("stream/conns=%d/callers=%d", conns, callers), func(b *testing.B) {
			pool, err := transport.DialTCPPool(bound, conns)
			if err != nil {
				b.Fatal(err)
			}
			defer pool.Close()
			db := transport.DBClient{C: pool}
			rpcs[conns] = saturate(b, func() error { _, err := db.GetContentStream(ref, nil); return err })
		})
	}

	// Allocation-free decode: the cache-hit path returns the shared
	// record — no defensive copy, no gob. Counted outside b.N so the
	// number lands in the JSON whatever -benchtime says.
	cli, err := transport.DialTCP(bound)
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	cached := transport.DBClient{C: cli}.WithContentCache(cache.New("bench-sat", 64<<20))
	if _, err := cached.GetContent(ref); err != nil {
		b.Fatal(err)
	}
	hitAllocs := testing.AllocsPerRun(1000, func() {
		if _, err := cached.GetContent(ref); err != nil {
			b.Fatal(err)
		}
	})

	// Fairness: p99 of 1 KB interactive calls through the deployment's
	// default connection pool while that same pool is otherwise idle,
	// then while it concurrently carries an 8 MB chunked stream end to
	// end — the navigator shape: one student clicking around while a
	// clip streams. Chunk bounds are what keep the tail sane: the big
	// transfer can never occupy a stripe for more than one chunk.
	inter, err := transport.DialTCPPool(bound, transport.DefaultPoolConns)
	if err != nil {
		b.Fatal(err)
	}
	defer inter.Close()
	interDB := transport.DBClient{C: inter}
	measureP99 := func(samples int) float64 {
		var lat sim.Series
		for i := 0; i < samples; i++ {
			start := time.Now()
			if _, err := interDB.GetContent(smallRef); err != nil {
				b.Fatal(err)
			}
			lat.AddDuration(time.Since(start))
		}
		return lat.Percentile(99)
	}
	const samples = 1500
	idleP99 := measureP99(samples)
	underLoad := func(fetch func() error) float64 {
		stop := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			for {
				select {
				case <-stop:
					done <- nil
					return
				default:
				}
				if err := fetch(); err != nil {
					done <- err
					return
				}
			}
		}()
		p99 := measureP99(samples)
		close(stop)
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		return p99
	}
	// Chunked: a pure consumer draining the clip through the sink
	// (nothing retained), back to back — a stream is always in flight.
	chunkedP99 := underLoad(func() error {
		_, err := interDB.GetContentStream(bigRef, func([]byte) error { return nil })
		return err
	})
	// Monolithic: the same 8 MB object fetched the pre-chunking way,
	// one giant frame per call — what every neighbour used to sit
	// behind.
	monolithicP99 := underLoad(func() error {
		_, err := interDB.GetContent(bigRef)
		return err
	})

	mergeBenchJSON(b, "BENCH_pipeline.json", map[string]any{"saturation": map[string]any{
		"benchmark":                               "E32TransportSaturation",
		"content_bytes":                           len(content),
		"callers":                                 callers,
		"num_cpu":                                 runtime.NumCPU(),
		"rpcs_per_sec":                            map[string]float64{"gob_conns_1": gobRPCs, "conns_1": rpcs[1], "conns_4": rpcs[transport.DefaultPoolConns]},
		"mb_per_sec":                              map[string]float64{"gob_conns_1": gobRPCs * float64(len(content)) / 1e6, "conns_1": rpcs[1] * float64(len(content)) / 1e6, "conns_4": rpcs[transport.DefaultPoolConns] * float64(len(content)) / 1e6},
		"pool_speedup_same_codec":                 rpcs[transport.DefaultPoolConns] / rpcs[1],
		"speedup_vs_single_conn_seed":             rpcs[transport.DefaultPoolConns] / gobRPCs,
		"accept_2x_vs_single_conn":                rpcs[transport.DefaultPoolConns] >= 2*gobRPCs,
		"cache_hit_allocs_per_op":                 hitAllocs,
		"interactive_p99_idle_ns":                 idleP99,
		"interactive_p99_under_chunked_8mb_ns":    chunkedP99,
		"interactive_p99_under_monolithic_8mb_ns": monolithicP99,
		"interleave_p99_ratio":                    chunkedP99 / idleP99,
		"chunking_tail_improvement":               monolithicP99 / chunkedP99,
		"accept_interleave_within_2x":             chunkedP99 <= 2*idleP99,
	}})
}
