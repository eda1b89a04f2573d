package client_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"origami/internal/client"
	"origami/internal/kvstore"
	"origami/internal/mds"
	"origami/internal/namespace"
	"origami/internal/rpc"
)

// Exactly-once mutations: every SDK mutation carries one (clientID, opID)
// identity across all of its retries, so an op whose response was lost is
// answered from the shard's replay table instead of applied again — and
// never "recovered" by guessing from the namespace.

// serveShard serves a one-MDS cluster from the store in dir on addr
// ("127.0.0.1:0" picks a port). Reopening the same dir on the returned
// address is a restart that keeps the namespace and loses the replay
// table.
func serveShard(dir, addr string) (*mds.Service, string, error) {
	store, err := mds.OpenStore(dir, 0, kvstore.Options{})
	if err != nil {
		return nil, "", err
	}
	svc := mds.NewService(0, store, nil)
	bound, err := svc.Serve(addr)
	if err != nil {
		store.Close()
		return nil, "", err
	}
	return svc, bound, nil
}

// lossyLink is a client link injector that, once armed, turns the next
// mutation response into a timeout and disarms: the op applied, the
// caller cannot know. hook runs before the loss is reported, while the
// caller still waits.
type lossyLink struct {
	armed atomic.Bool
	hook  func()
}

func (l *lossyLink) Intercept(p rpc.InjectPoint, m rpc.Method) rpc.Fault {
	if p != rpc.PointClientRecv || m == mds.MethodGetMap || m == mds.MethodResolvePath ||
		!l.armed.CompareAndSwap(true, false) {
		return rpc.Fault{}
	}
	if l.hook != nil {
		l.hook()
	}
	return rpc.Fault{Action: rpc.FaultError, Err: rpc.ErrTimeout}
}

func (l *lossyLink) injector(int) rpc.FaultInjector { return l }

// TestReplayExactlyOnceAfterLostResponse: each mutation kind applies,
// loses its response, and retries. The retry must be answered from the
// replay table (one replay, the op's own result) and the namespace must
// show the op applied exactly once.
func TestReplayExactlyOnceAfterLostResponse(t *testing.T) {
	svc, addr, err := serveShard(t.TempDir(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	for _, window := range []int{0, 8} {
		link := &lossyLink{}
		sdk, err := client.Dial(client.Config{Addrs: []string{addr}, Cache: "off", BatchWindow: window,
			LinkInjector: link.injector})
		if err != nil {
			t.Fatal(err)
		}
		dir := fmt.Sprintf("/w%d", window)
		if _, err := sdk.Mkdir(dir); err != nil {
			t.Fatal(err)
		}
		if _, err := sdk.Create(dir + "/victim"); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name  string
			op    func() error
			check func() error
		}{
			{"create", func() error { _, err := sdk.Create(dir + "/new"); return err },
				func() error { _, err := sdk.Stat(dir + "/new"); return err }},
			{"setattr", func() error { _, err := sdk.Setattr(dir+"/new", 42, 0o600); return err },
				func() error {
					in, err := sdk.Stat(dir + "/new")
					if err == nil && in.Size != 42 {
						err = fmt.Errorf("size %d, want 42", in.Size)
					}
					return err
				}},
			{"rename", func() error { return sdk.Rename(dir+"/new", dir+"/moved") },
				func() error {
					if _, err := sdk.Stat(dir + "/new"); err == nil {
						return fmt.Errorf("source survived the rename")
					}
					_, err := sdk.Stat(dir + "/moved")
					return err
				}},
			{"remove", func() error { return sdk.Remove(dir + "/victim") },
				func() error {
					if _, err := sdk.Stat(dir + "/victim"); err == nil {
						return fmt.Errorf("entry survived the remove")
					}
					return nil
				}},
		} {
			replays := sdk.Registry().Counter("client.batch.replays").Value()
			link.armed.Store(true)
			err := tc.op()
			if link.armed.Load() {
				t.Fatalf("window %d: %s lost no response", window, tc.name)
			}
			if err != nil {
				t.Errorf("window %d: %s after a lost response: %v", window, tc.name, err)
				continue
			}
			if got := sdk.Registry().Counter("client.batch.replays").Value() - replays; got != 1 {
				t.Errorf("window %d: %s retry answered by %d replays, want 1", window, tc.name, got)
			}
			if err := tc.check(); err != nil {
				t.Errorf("window %d: %s: %v", window, tc.name, err)
			}
		}
		sdk.Close()
	}
}

// TestMisattribCreateRetry: client A's create applies but its response
// is lost; before A retries, client B removes the entry and creates the
// same name again. A's retry must never report B's inode as its own.
// While the shard's replay table holds A's op, A gets its own original
// outcome; once the table is lost to a restart, A gets the namespace's
// honest answer, EEXIST.
func TestMisattribCreateRetry(t *testing.T) {
	for _, window := range []int{0, 8} {
		for _, restart := range []bool{false, true} {
			t.Run(fmt.Sprintf("window=%d/restart=%v", window, restart), func(t *testing.T) {
				dir := t.TempDir()
				svc, addr, err := serveShard(dir, "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { svc.Close() })
				b, err := client.Dial(client.Config{Addrs: []string{addr}, Cache: "off"})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { b.Close() })

				var bIno namespace.Ino
				link := &lossyLink{}
				link.hook = func() {
					if err := b.Remove("/f"); err != nil {
						t.Errorf("B's remove of A's entry: %v", err)
					}
					in, err := b.Create("/f")
					if err != nil {
						t.Errorf("B's create: %v", err)
						return
					}
					bIno = in.Ino
					if restart {
						svc.Close()
						var rerr error
						if svc, _, rerr = serveShard(dir, addr); rerr != nil {
							t.Errorf("restart: %v", rerr)
						}
					}
				}
				a, err := client.Dial(client.Config{Addrs: []string{addr}, Cache: "off", BatchWindow: window,
					LinkInjector: link.injector})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { a.Close() })

				link.armed.Store(true)
				in, err := a.Create("/f")
				if bIno == 0 {
					t.Fatal("the lost-response hook never ran")
				}
				if err == nil && in.Ino == bIno {
					t.Fatalf("A's create reported B's inode %d as its own", bIno)
				}
				if restart {
					if mds.ErrCode(err) != mds.CodeExist {
						t.Errorf("A's retry after the replay table was lost: %v, want EEXIST", err)
					}
					return
				}
				if err != nil {
					t.Errorf("A's retry: %v, want its own replayed create", err)
				}
			})
		}
	}
}
