package main

import (
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"time"

	"mits"
	"mits/internal/courseware"
	"mits/internal/document"
	"mits/internal/mediastore"
	"mits/internal/mheg"
	"mits/internal/mheg/codec"
	"mits/internal/production"
)

// Catalogue shape. Course sizes and codes do not come from the seed:
// sizes are spread evenly over about 7–11 MB and interleaved across
// popularity ranks, and codes (hence shard placement) follow rank, so
// the Zipf-weighted bytes per session and their split across shards
// are the same for every seed and run-to-run spread measures the
// system, not the draw. The seed decides the media bytes, programs,
// keywords and every user's draws.
const (
	numCourses       = 24
	studentsPerUser  = 128
	introDuration    = 20 * time.Second
	minAnimSeconds   = 5
	maxAnimSeconds   = 26
	animScene        = "switching"
	animObject       = "anim1"
	variantTrimShare = 8 // variant B drops the last 1/8 of variant A
)

var (
	programs = []string{"Engineering", "Science", "Education", "Medicine"}
	// keywordPaths are the library's subject paths; every course files
	// under two of them, the library holdings under their own.
	keywordPaths = []string{
		"network/atm", "network/bisdn", "network/switching", "network/signalling",
		"multimedia/mheg", "multimedia/mpeg", "multimedia/audio",
		"education/theory", "education/assessment", "broadband",
	}
	crcTable = crc32.MakeTable(crc32.Castagnoli)
)

// checksum is the content fingerprint every read is checked against.
func checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// object is one stored database object (content or courseware
// document) with its two published byte variants. Variant B is a
// trimmed cut of variant A and shares its memory. Data is dropped after
// set-up unless the workload republishes it; the fingerprints stay.
type object struct {
	Ref     string
	Coding  string
	Data    [2][]byte
	Sum     [2]uint32
	Len     [2]int
	Content mheg.ID // engine model id; zero for the intro and documents
}

func newObject(ref, coding string, data []byte) *object {
	o := &object{Ref: ref, Coding: coding}
	o.Data[0] = data
	o.Data[1] = data[:len(data)-len(data)/variantTrimShare]
	for v, d := range o.Data {
		o.Sum[v], o.Len[v] = checksum(d), len(d)
	}
	return o
}

// is reports whether b is exactly variant v of the object.
func (o *object) is(b []byte, v int) bool {
	return len(b) == o.Len[v] && checksum(b) == o.Sum[v]
}

// isEither reports whether b is one of the two published variants.
func (o *object) isEither(b []byte) bool { return o.is(b, 0) || o.is(b, 1) }

// course is one catalogue course: a clone of the sample ATM course with
// its own media references and clip lengths.
type course struct {
	Code, Program  string
	Doc            *object // interchanged MHEG container (asn1)
	DocName, Title string
	Keywords       []string
	Intro          *object
	Media          []*object // engine-resolved content objects
	Scenes         []string  // scene ids in presentation order
	Bytes          int       // intro + media
}

// holding is one library document (small HTML, read by browse).
type holding struct {
	Name     string
	Keywords []string
	Obj      *object
}

// catalogue is everything the seed determines: courses in popularity
// order (rank 0 most popular), library holdings, and the expected
// answers of the listing and search calls.
type catalogue struct {
	Courses  []*course
	Holdings []*holding
	Programs []string
	Queries  []string // keyword search terms
	Bytes    int64    // total stored content + document bytes (variant A)

	expectTree   string              // canonical rendering of the keyword tree
	expectSearch map[string][]string // query → doc names
	expectIn     map[string][]string // program → course codes, sorted
}

// animSecondsForRank spreads clip lengths over [min,max] by a fixed
// permutation of ranks (7 is coprime with 24), so neighbouring ranks
// alternate large and small courses.
func animSecondsForRank(rank int) int {
	slot := (rank * 7) % numCourses
	return minAnimSeconds + slot*(maxAnimSeconds-minAnimSeconds)/(numCourses-1)
}

// newCatalogue produces the seeded catalogue: media bytes come from the
// production center seeded by seed, names and keywords from a PCG
// stream of seed. The result is identical for identical seeds.
func newCatalogue(seed uint64) (*catalogue, error) {
	rng := rand.New(rand.NewPCG(seed, 0x6361746c67)) // "catlg"
	center := &production.Center{SeedBase: seed}
	cat := &catalogue{}

	for rank := 0; rank < numCourses; rank++ {
		code := fmt.Sprintf("MT%03d", 101+rank)
		c, err := buildCourse(center, code, rank, rng)
		if err != nil {
			return nil, err
		}
		cat.Courses = append(cat.Courses, c)
		cat.Bytes += int64(c.Bytes + c.Doc.Len[0])
	}

	col := &collector{}
	docs, err := center.StockLibrary(col)
	if err != nil {
		return nil, fmt.Errorf("stock library: %w", err)
	}
	for i, d := range docs {
		o := col.objs[i]
		cat.Holdings = append(cat.Holdings, &holding{Name: d.Name, Keywords: d.Keywords, Obj: o})
		cat.Bytes += int64(2 * o.Len[0]) // stored as content and as a document
	}
	cat.expect()
	return cat, nil
}

// buildCourse clones the sample course under code, renaming every media
// reference into the course's own namespace and sizing its animation
// for rank, then compiles and produces it.
func buildCourse(center *production.Center, code string, rank int, rng *rand.Rand) (*course, error) {
	doc, err := mits.SampleATMCourse()
	if err != nil {
		return nil, err
	}
	prefix := "store/" + strings.ToLower(code) + "/"
	var scenes []string
	var walk func(secs []*document.Section)
	walk = func(secs []*document.Section) {
		for _, s := range secs {
			for _, sc := range s.Scenes {
				scenes = append(scenes, sc.ID)
				for i := range sc.Objects {
					o := &sc.Objects[i]
					if o.Media != "" {
						o.Media = prefix + o.Media[strings.LastIndex(o.Media, "/")+1:]
					}
					if sc.ID == animScene && o.ID == animObject {
						o.Duration = time.Duration(animSecondsForRank(rank)) * time.Second
					}
				}
			}
			walk(s.Subsections)
		}
	}
	walk(doc.Sections)
	doc.Title = fmt.Sprintf("ATM Technology %s", code)

	c := &course{
		Code:    code,
		Program: programs[rng.IntN(len(programs))],
		DocName: strings.ToLower(code) + "-course",
		Title:   doc.Title,
		Scenes:  scenes,
	}
	for _, i := range rng.Perm(len(keywordPaths))[:2] {
		c.Keywords = append(c.Keywords, keywordPaths[i])
	}
	sort.Strings(c.Keywords)

	out, err := courseware.CompileIMD(doc, c.DocName)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", code, err)
	}
	// The compiler lists a descriptor's resource needs in map order;
	// sort them so one seed always publishes the same bytes.
	for _, item := range out.Container.Items {
		if d, ok := item.(*mheg.Descriptor); ok {
			sort.Slice(d.Needs, func(i, j int) bool { return d.Needs[i].Coding < d.Needs[j].Coding })
		}
	}
	data, err := codec.ASN1().Encode(out.Container)
	if err != nil {
		return nil, fmt.Errorf("encode %s: %w", code, err)
	}
	c.Doc = newObject(c.DocName, "asn1", data)

	col := &collector{}
	if _, err := center.ProduceForCourse(out, col); err != nil {
		return nil, fmt.Errorf("produce %s: %w", code, err)
	}
	byRef := make(map[string]mheg.ID)
	for _, item := range out.Container.Items {
		if ct, ok := item.(*mheg.Content); ok && ct.Referenced() {
			byRef[ct.ContentRef] = ct.ID
		}
	}
	for _, o := range col.objs {
		o.Content = byRef[o.Ref]
		c.Media = append(c.Media, o)
		c.Bytes += o.Len[0]
	}
	introRef := prefix + "introduction.mpg"
	intro, err := center.Produce(introRef, production.Hints{Duration: introDuration, Topic: "Introduction to " + doc.Title})
	if err != nil {
		return nil, fmt.Errorf("produce intro %s: %w", code, err)
	}
	c.Intro = newObject(introRef, string(intro.Coding), intro.Data)
	c.Bytes += c.Intro.Len[0]
	return c, nil
}

// collector is a production sink that keeps what was produced.
type collector struct{ objs []*object }

func (c *collector) PutContent(ref, coding string, data []byte, _ ...string) error {
	c.objs = append(c.objs, newObject(ref, coding, data))
	return nil
}

// expect derives the expected listing and search answers from a single
// reference store holding the same documents: the cluster's
// scatter-gather merge must answer exactly as one store would.
func (cat *catalogue) expect() {
	ref := mediastore.New()
	put := func(name string, kws []string) {
		// The reference store indexes keywords only; the data is a stub.
		if _, err := ref.PutDocument(name, name, "raw", []byte{0}, kws...); err != nil {
			panic(err) // a stub document always stores
		}
	}
	cat.expectIn = make(map[string][]string)
	for _, c := range cat.Courses {
		put(c.DocName, c.Keywords)
		cat.expectIn[c.Program] = append(cat.expectIn[c.Program], c.Code)
	}
	for prog, codes := range cat.expectIn {
		sort.Strings(codes)
		cat.Programs = append(cat.Programs, prog) // the school lists only programs with courses
	}
	sort.Strings(cat.Programs)
	for _, h := range cat.Holdings {
		put(h.Name, h.Keywords)
	}
	seen := make(map[string]bool)
	for _, p := range append(append([]string(nil), keywordPaths...), "reference", "standard", "network", "multimedia", "education") {
		if !seen[p] {
			seen[p] = true
			cat.Queries = append(cat.Queries, p)
		}
	}
	for _, h := range cat.Holdings {
		for _, kw := range h.Keywords {
			if !seen[kw] {
				seen[kw] = true
				cat.Queries = append(cat.Queries, kw)
			}
		}
	}
	cat.expectSearch = make(map[string][]string, len(cat.Queries))
	for _, q := range cat.Queries {
		cat.expectSearch[q] = ref.DocsByKeyword(q)
	}
	cat.expectTree = renderTree(ref.Keywords())
}

// dropData releases the media bytes once they are published; checks
// need only the fingerprints.
func (cat *catalogue) dropData() {
	for _, c := range cat.Courses {
		c.Doc.Data = [2][]byte{}
		c.Intro.Data = [2][]byte{}
		for _, o := range c.Media {
			o.Data = [2][]byte{}
		}
	}
}

// renderTree is a canonical text form of a keyword tree: the wire
// decoder and the store disagree on nil versus empty slices, never on
// names or order.
func renderTree(n *mediastore.KeywordNode) string {
	var b strings.Builder
	var walk func(n *mediastore.KeywordNode, depth int)
	walk = func(n *mediastore.KeywordNode, depth int) {
		fmt.Fprintf(&b, "%d:%s[%s]\n", depth, n.Name, strings.Join(n.Docs, ","))
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	if n != nil {
		walk(n, 0)
	}
	return b.String()
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(k+1)^s;
// s = 1 is allowed (math/rand's Zipf needs s > 1).
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = total
	}
	for k := range z.cdf {
		z.cdf[k] /= total
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	k := sort.SearchFloat64s(z.cdf, rng.Float64())
	if k == len(z.cdf) { // rounding left the last bound below 1
		k--
	}
	return k
}
