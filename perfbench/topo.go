package main

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"mits/internal/cluster"
	"mits/internal/exercise"
	"mits/internal/facilitator"
	"mits/internal/mediastore"
	"mits/internal/school"
	"mits/internal/transport"
)

// Topology: two shards, each a primary plus one read replica, behind
// one front door. Every hop is loopback TCP.
const (
	numShards       = 2
	nodesPerShard   = 2
	routerTimeout   = 2 * time.Second // cluster.NewTCPRouter's default call timeout
	convergeTimeout = 60 * time.Second
)

const topologyText = "2 shards x (primary + 1 read replica), front door = cluster router + school on one mux"

// topo is one running cluster and the users' connections to it.
type topo struct {
	nodes  []*transport.TCPServer
	router *cluster.Router
	front  *transport.TCPServer
	school *school.School
	conns  []transport.Client // one multiplexed connection per user
	// students[u] are the student numbers user u logs in as.
	students [][]string
}

// startTopo starts the shard nodes and the front door, publishes the
// catalogue through the router, registers the students and dials one
// connection per user. With a non-nil log every layer boundary is
// wrapped for tracing.
func startTopo(cat *catalogue, users int, log *spanLog) (t *topo, err error) {
	t = &topo{}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	var spec []string
	for sh := 0; sh < numShards; sh++ {
		var addrs []string
		for r := 0; r < nodesPerShard; r++ {
			store := mediastore.New()
			mux := transport.NewMux()
			transport.RegisterStore(mux, store)
			var h transport.Handler = mux
			if log != nil {
				h = wrapHandler(mux, log, layerShard, len(t.nodes))
			}
			srv := transport.NewTCPServer(h)
			t.nodes = append(t.nodes, srv)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				return nil, fmt.Errorf("shard node: %w", err)
			}
			addrs = append(addrs, addr)
		}
		spec = append(spec, strings.Join(addrs, ","))
	}
	if t.router, err = newRouter(strings.Join(spec, ";"), log); err != nil {
		return nil, err
	}

	// The front door as cmd/mitsd -cluster wires it.
	t.school = school.New("MITS benchmark school")
	mux := transport.NewMux()
	t.router.Register(mux)
	school.RegisterService(mux, t.school)
	facilitator.RegisterService(mux, facilitator.New())
	exercise.RegisterService(mux, exercise.NewBook())
	var h transport.Handler = mux
	if log != nil {
		h = wrapHandler(mux, log, layerFront, -1)
	}
	t.front = transport.NewTCPServer(h)
	frontAddr, err := t.front.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("front door: %w", err)
	}

	if err := t.publish(cat); err != nil {
		return nil, err
	}
	if err := t.register(cat, users); err != nil {
		return nil, err
	}
	if !t.router.WaitConverged(convergeTimeout) {
		return nil, fmt.Errorf("replication backlog %d after %v", t.router.Backlog(), convergeTimeout)
	}
	for u := 0; u < users; u++ {
		c, err := transport.DialTCP(frontAddr)
		if err != nil {
			return nil, fmt.Errorf("dial front door: %w", err)
		}
		var conn transport.Client = c
		if log != nil {
			conn = wrapClient(c, log, layerClient, u)
		}
		t.conns = append(t.conns, conn)
	}
	return t, nil
}

// newRouter builds the cluster router with cluster.NewTCPRouter's
// defaults. The traced build parses the same spec itself so it can wrap
// each replica's dialer.
func newRouter(spec string, log *spanLog) (*cluster.Router, error) {
	if log == nil {
		return cluster.NewTCPRouter(spec, cluster.TCPOptions{})
	}
	shards, err := cluster.ParseSpec(spec, routerTimeout)
	if err != nil {
		return nil, err
	}
	node := 0
	for i := range shards {
		for j := range shards[i].Replicas {
			rc := &shards[i].Replicas[j]
			rc.Dial = wrapDialer(rc.Dial, log, node)
			node++
		}
	}
	return cluster.New(cluster.Config{Shards: shards})
}

// publish stores the catalogue through the router (as cmd/mitsd
// -cluster publishes its samples) and lists the courses.
func (t *topo) publish(cat *catalogue) error {
	db := transport.DBClient{C: transport.Loopback{H: t.router}}
	for _, c := range cat.Courses {
		if _, err := db.PutDocument(c.DocName, c.Title, c.Doc.Coding, c.Doc.Data[0], c.Keywords...); err != nil {
			return fmt.Errorf("publish %s: %w", c.DocName, err)
		}
		for _, o := range append([]*object{c.Intro}, c.Media...) {
			if err := db.PutContent(o.Ref, o.Coding, o.Data[0]); err != nil {
				return fmt.Errorf("publish %s: %w", o.Ref, err)
			}
		}
		if err := t.school.AddCourse(school.Course{
			Code: c.Code, Name: c.Title, Program: c.Program, PlannedSessions: 4,
			Document: c.DocName, IntroRef: c.Intro.Ref,
		}); err != nil {
			return err
		}
	}
	for _, h := range cat.Holdings {
		if err := db.PutContent(h.Obj.Ref, h.Obj.Coding, h.Obj.Data[0], h.Keywords...); err != nil {
			return fmt.Errorf("publish %s: %w", h.Obj.Ref, err)
		}
		if _, err := db.PutDocument(h.Name, h.Name, "raw-html", h.Obj.Data[0], h.Keywords...); err != nil {
			return fmt.Errorf("publish %s: %w", h.Name, err)
		}
	}
	return nil
}

// register creates each user's students, enrolled in every course.
func (t *topo) register(cat *catalogue, users int) error {
	t.students = make([][]string, users)
	for u := range t.students {
		for i := 0; i < studentsPerUser; i++ {
			num, err := t.school.Register(school.Profile{Name: fmt.Sprintf("student %d.%d", u, i)})
			if err != nil {
				return err
			}
			for _, c := range cat.Courses {
				if err := t.school.Enroll(num, c.Code); err != nil {
					return err
				}
			}
			t.students[u] = append(t.students[u], num)
		}
	}
	return nil
}

// close stops everything startTopo started and waits for it.
func (t *topo) close() error {
	var errs []error
	for _, c := range t.conns {
		errs = append(errs, c.Close())
	}
	if t.front != nil {
		errs = append(errs, t.front.Close())
	}
	if t.router != nil {
		errs = append(errs, t.router.Close())
	}
	for _, n := range t.nodes {
		errs = append(errs, n.Close())
	}
	return errors.Join(errs...)
}
