package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"time"

	"mits"
	"mits/internal/cache"
	"mits/internal/navigator"
	"mits/internal/transport"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlSession = "session"
	wlBrowse  = "browse"
	wlPublish = "publish"
)

var workloads = []string{wlSession, wlBrowse, wlPublish}

// cacheName labels every navigator content cache in the metrics
// registry; the traced run reads its hit counters.
const cacheName = "content:perfbench"

// smallObject is the size below which a publish-workload read counts as
// an interactive action: one stream chunk.
const smallObject = transport.DefaultStreamChunkBytes

// sceneRun is how long the session's virtual clock runs in each scene:
// longer than the longest scene, so every timed object starts.
const sceneRun = 35 * time.Second

// Sample series. Which ones a workload fills is listed in reportSeries.
const (
	sOp = iota
	sInteractive
	sCourseStart
	sTTFC
	sClipMBps
	sPublish
	sCourseRead
	numSeries
)

var seriesNames = [numSeries]string{"op", "interactive", "course_start", "ttfc", "clip_MBps", "publish", "course_read"}

// sample is one measured value, stamped with when it completed.
type sample struct {
	series int
	at     time.Duration
	v      float64
}

// opRec is one completed user operation.
type opRec struct {
	start, end time.Duration
	check      time.Duration // spent checking the outputs after end
	failed     bool
}

// user is one closed-loop navigator: it issues its next operation only
// after the previous one returned.
type user struct {
	id   int
	r    *runner
	rng  *rand.Rand
	conn transport.Client

	ops     []opRec
	samples []sample
	errs    []string

	// browse: one long-lived navigator.
	nav *navigator.Navigator
	// publish: the course being written or read, call by call.
	rank    int
	todo    []*object
	started time.Duration
	ver     []int // author: expected document version per course
	variant []int // author: variant each course holds now
}

// userStream gives each (seed, workload, user) its own PCG stream, so a
// user's op sequence depends on nothing but those three.
func userStream(seed uint64, workload string, id int) *rand.Rand {
	h := uint64(id + 1)
	for _, b := range []byte(workload) {
		h = h*131 + uint64(b)
	}
	return rand.New(rand.NewPCG(seed, h))
}

func (u *user) now() time.Duration { return time.Since(u.r.base) }

func (u *user) sample(s int, v float64) {
	u.samples = append(u.samples, sample{series: s, at: u.now(), v: v})
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// timed runs one interactive step and records its latency.
func (u *user) timed(s int, f func() error) error {
	t0 := time.Now()
	err := f()
	u.sample(s, ms(time.Since(t0)))
	return err
}

// fail records a failed check or call; the first few are kept for the
// report.
func (u *user) fail(err error) {
	if len(u.errs) < 5 {
		u.errs = append(u.errs, fmt.Sprintf("user %d: %v", u.id, err))
	}
}

// loop runs operations until stop. Each operation returns its checks
// separately, so verifying outputs never counts towards its latency,
// and their time is kept out of the throughput.
func (u *user) loop(stop time.Duration) {
	for u.now() < stop {
		start := u.now()
		var tstart int64
		if u.r.log != nil {
			tstart = u.r.log.now()
		}
		asked, check, err := u.r.step(u)
		end := u.now()
		if u.r.log != nil {
			u.r.log.add(layerOp, span{node: u.id, start: tstart, end: u.r.log.now(), asked: asked, failed: err != nil})
		}
		if err == nil && check != nil {
			err = check()
		}
		checked := u.now() - end
		if err != nil {
			u.fail(err)
		}
		u.ops = append(u.ops, opRec{start: start, end: end, check: checked, failed: err != nil})
		u.samples = append(u.samples, sample{series: sOp, at: end, v: ms(end - start)})
	}
}

// ---- session ----

// sessionPlan is everything a session draws from the user's stream.
type sessionPlan struct {
	course, student int
	click           bool // quiz answer, else jump to scene
	target          int  // answer index or scene index
}

var quizAnswers = []string{"53 bytes", "48 bytes"}

func nextSession(rng *rand.Rand, z *zipf, nScenes int) sessionPlan {
	p := sessionPlan{course: z.draw(rng), student: rng.IntN(studentsPerUser), click: rng.IntN(2) == 0}
	if p.click {
		p.target = rng.IntN(len(quizAnswers))
	} else {
		p.target = rng.IntN(nScenes)
	}
	return p
}

// session is one student at a lab PC: a fresh navigator and cache,
// login, course listing, the intro clip streamed, the course presented
// scene by scene, one interaction, a bookmark and exit.
func (u *user) session() (int, func() error, error) {
	cat := u.r.cat
	p := nextSession(u.rng, u.r.zipf, len(cat.Courses[0].Scenes))
	c := cat.Courses[p.course]
	nav := navigator.New(navigator.Options{
		DB: u.conn, School: u.conn,
		ContentCache: cache.New(cacheName, mits.DefaultContentCacheBytes),
	})
	if err := u.timed(sInteractive, func() error { return nav.Login(u.r.topo.students[u.id][p.student]) }); err != nil {
		return 0, nil, fmt.Errorf("login: %w", err)
	}
	var listed []string
	if err := u.timed(sInteractive, func() error {
		cs, err := nav.CoursesIn(c.Program)
		for _, x := range cs {
			listed = append(listed, x.Code)
		}
		return err
	}); err != nil {
		return 0, nil, fmt.Errorf("courses in %s: %w", c.Program, err)
	}

	t0 := time.Now()
	var first time.Duration
	streamed := 0
	intro, err := nav.ReadLibraryStream(c.Intro.Ref, func(b []byte) error {
		if streamed == 0 {
			first = time.Since(t0)
		}
		streamed += len(b)
		return nil
	})
	if err != nil {
		return 0, nil, fmt.Errorf("intro stream %s: %w", c.Intro.Ref, err)
	}
	clip := time.Since(t0)
	u.sample(sTTFC, ms(first))
	u.sample(sClipMBps, float64(streamed)/clip.Seconds()/1e6)

	if err := u.timed(sCourseStart, func() error { return nav.StartCourse(c.Code) }); err != nil {
		return 0, nil, fmt.Errorf("start %s: %w", c.Code, err)
	}
	scenes := nav.Scenes()
	for _, s := range c.Scenes {
		if err := nav.GotoScene(s); err != nil {
			return 0, nil, fmt.Errorf("goto %s: %w", s, err)
		}
		nav.Clock().RunFor(sceneRun)
	}
	eng := nav.Engine()
	fetches := eng.Stats.ContentFetches
	// content bytes the session asked its navigator for
	asked := len(intro.Data) + int(eng.Stats.BytesFetched)
	if err := u.timed(sInteractive, func() error {
		if p.click {
			if err := nav.GotoScene("quiz"); err != nil {
				return err
			}
			return nav.Click(quizAnswers[p.target])
		}
		return nav.GotoScene(c.Scenes[p.target])
	}); err != nil {
		return 0, nil, fmt.Errorf("interaction: %w", err)
	}
	if err := u.timed(sInteractive, func() error { return nav.Bookmark("perfbench") }); err != nil {
		return 0, nil, fmt.Errorf("bookmark: %w", err)
	}
	if err := u.timed(sInteractive, nav.ExitCourse); err != nil {
		return 0, nil, fmt.Errorf("exit: %w", err)
	}

	check := func() error {
		if want := cat.expectIn[c.Program]; !slices.Equal(listed, want) {
			return fmt.Errorf("courses in %s: got %v, want %v", c.Program, listed, want)
		}
		if streamed != c.Intro.Len[0] || !c.Intro.is(intro.Data, 0) {
			return fmt.Errorf("intro %s: %d bytes streamed, content differs from the catalogue", c.Intro.Ref, streamed)
		}
		want := append([]string(nil), c.Scenes...)
		sort.Strings(want)
		if !slices.Equal(scenes, want) {
			return fmt.Errorf("start %s: scenes %v, want %v", c.Code, scenes, want)
		}
		if fetches != len(c.Media) {
			return fmt.Errorf("course %s: engine fetched %d media objects, course has %d", c.Code, fetches, len(c.Media))
		}
		for _, o := range c.Media {
			data, err := eng.ContentData(o.Content)
			if err != nil || !o.is(data, 0) {
				return fmt.Errorf("course %s: content %s differs from the catalogue (err %v)", c.Code, o.Ref, err)
			}
		}
		return nil
	}
	return asked, check, nil
}

// ---- browse ----

// browse steps and their weights (percent). No measured MITS traffic
// gives the real mix, so each step gets an even share: the mix is a
// stated choice, not an observed one.
const (
	stepTree = iota
	stepSearch
	stepPrograms
	stepCourses
	stepRead
	numSteps
)

var stepWeights = [numSteps]int{20, 20, 20, 20, 20}

type browsePlan struct{ step, arg int }

func nextStep(rng *rand.Rand, cat *catalogue) browsePlan {
	n := rng.IntN(100)
	step := 0
	for n >= stepWeights[step] {
		n -= stepWeights[step]
		step++
	}
	p := browsePlan{step: step}
	switch step {
	case stepSearch:
		p.arg = rng.IntN(len(cat.Queries))
	case stepCourses:
		p.arg = rng.IntN(len(cat.Programs))
	case stepRead:
		p.arg = rng.IntN(len(cat.Holdings))
	}
	return p
}

// browse is one library or catalogue step on a long-lived navigator.
func (u *user) browse() (int, func() error, error) {
	cat := u.r.cat
	if u.nav == nil {
		u.nav = navigator.New(navigator.Options{
			DB: u.conn, School: u.conn,
			ContentCache: cache.New(cacheName, mits.DefaultContentCacheBytes),
		})
	}
	p := nextStep(u.rng, cat)
	var check func() error
	asked := 0
	err := u.timed(sInteractive, func() error {
		switch p.step {
		case stepTree:
			tree, err := u.nav.LibraryTree()
			check = func() error {
				if got := renderTree(tree); got != cat.expectTree {
					return fmt.Errorf("keyword tree differs from a single store's:\n%s\nwant:\n%s", got, cat.expectTree)
				}
				return nil
			}
			return err
		case stepSearch:
			q := cat.Queries[p.arg]
			docs, err := u.nav.SearchLibrary(q)
			check = func() error { return sameList("search "+q, docs, cat.expectSearch[q]) }
			return err
		case stepPrograms:
			progs, err := u.nav.Programs()
			check = func() error { return sameList("programs", progs, cat.Programs) }
			return err
		case stepCourses:
			prog := cat.Programs[p.arg]
			cs, err := u.nav.CoursesIn(prog)
			check = func() error {
				var codes []string
				for _, c := range cs {
					codes = append(codes, c.Code)
				}
				return sameList("courses in "+prog, codes, cat.expectIn[prog])
			}
			return err
		default:
			h := cat.Holdings[p.arg]
			asked = h.Obj.Len[0]
			rec, err := u.nav.ReadLibrary(h.Obj.Ref)
			check = func() error {
				if !h.Obj.is(rec.Data, 0) {
					return fmt.Errorf("library %s differs from the catalogue", h.Obj.Ref)
				}
				return nil
			}
			return err
		}
	})
	return asked, check, err
}

func sameList(what string, got, want []string) error {
	if len(got) == 0 && len(want) == 0 {
		return nil
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("%s: got %v, want %v", what, got, want)
	}
	return nil
}

// ---- publish ----

// courseObjects lists what one republish writes and one course read
// reads, document first.
func courseObjects(c *course) []*object {
	return append([]*object{c.Doc, c.Intro}, c.Media...)
}

// publishCall is one database call of the publish workload: user 0
// republishes Zipf-drawn courses object by object, alternating each
// course between its two variants; every other user reads Zipf-drawn
// courses object by object with no cache.
func (u *user) publishCall() (int, func() error, error) {
	cat := u.r.cat
	db := transport.DBClient{C: u.conn}
	if len(u.todo) == 0 {
		u.rank = u.r.zipf.draw(u.rng)
		u.todo = courseObjects(cat.Courses[u.rank])
		u.started = u.now()
		if u.id == 0 {
			u.variant[u.rank] ^= 1
		}
	}
	c := cat.Courses[u.rank]
	o := u.todo[0]
	u.todo = u.todo[1:]

	if u.id == 0 {
		v := u.variant[u.rank]
		var ver int
		err := u.timed(sPublish, func() error {
			if o == c.Doc {
				var err error
				ver, err = db.PutDocument(c.DocName, c.Title, o.Coding, o.Data[v], c.Keywords...)
				return err
			}
			return db.PutContent(o.Ref, o.Coding, o.Data[v])
		})
		if err != nil {
			return 0, nil, fmt.Errorf("put %s: %w", o.Ref, err)
		}
		if o != c.Doc {
			return 0, nil, nil
		}
		u.ver[u.rank]++
		want := u.ver[u.rank]
		return 0, func() error {
			if ver != want {
				return fmt.Errorf("put %s: version %d, want %d", c.DocName, ver, want)
			}
			return nil
		}, nil
	}

	var data []byte
	read := func() error {
		if o == c.Doc {
			rec, err := db.GetSelectedDoc(c.DocName)
			if err == nil {
				data = rec.Data
			}
			return err
		}
		rec, err := db.GetContent(o.Ref)
		if err == nil {
			data = rec.Data
		}
		return err
	}
	var err error
	if o.Len[0] < smallObject {
		err = u.timed(sInteractive, read) // the document, the MIDI, the still
	} else {
		err = read()
	}
	if err != nil {
		return 0, nil, fmt.Errorf("read %s: %w", o.Ref, err)
	}
	if len(u.todo) == 0 {
		u.sample(sCourseRead, ms(u.now()-u.started))
	}
	return 0, func() error {
		if !o.isEither(data) {
			return fmt.Errorf("read %s: %d bytes match neither published variant", o.Ref, len(data))
		}
		return nil
	}, nil
}
