package experiment

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cohmeleon/internal/faultinject"
	"cohmeleon/internal/store"
)

// Cell leases: the coordination layer that lets N independent cohmeleon
// processes (batch -shared runs, multiple serve instances, or a mix)
// cooperatively execute one sweep/learners grid over a single shared
// cache directory, coordinated only through the store — no network, no
// leader. Each worker claims a cell by atomically creating a
// checksummed lease file under <cache-dir>/leases/<checkpoint-key>/,
// renews a heartbeat counter while computing, publishes the result as
// the ordinary checkpoint cell, and then deletes the lease. Survivors
// detect dead holders by watching the renewal counter: a lease whose
// (token, renewals) pair has not advanced for a full TTL on the
// observer's own monotonic clock is stale and is reclaimed — renamed
// aside exactly once (the rename is the race arbiter), then re-leased
// under a bumped fencing token.
//
// Correctness never depends on the leases. Cells are pure functions of
// their inputs and publish via atomic rename, so the worst any lease
// failure — a lost race, a spurious reclaim of a live-but-slow holder,
// even computing with no lease at all — can cause is duplicated work
// publishing identical bytes. The leases exist to make duplication
// rare, not to make it safe; the store already made it safe.
//
// Clock-skew tolerance: staleness is never judged from file mtimes or
// wall-clock timestamps written by other hosts. An observer records the
// (token, renewals) pair it read and the reading on its OWN monotonic
// clock; only the pair failing to advance for a TTL of local monotonic
// time expires a lease. Skewed host clocks therefore cannot expire a
// live lease or keep a dead one alive.

// leaseVersion tags the lease-file envelope. Bump it when the image
// layout changes: old lease files then fail verification and are
// quarantined like any other corrupt blob.
const leaseVersion = 1

// leaseFallbackAfter is how many consecutive failed lease-acquire
// attempts (errors, not lost races) a cell tolerates before the worker
// computes it without a lease. Progress beats dedup: a broken lease
// directory must degrade to duplicated work, never to a stuck grid.
const leaseFallbackAfter = 3

// leaseRoot names the lease area under a cache directory.
func leaseRoot(cacheDir string) string {
	return filepath.Join(cacheDir, "leases")
}

// leaseImage is the persisted lease payload, framed in the same
// checksummed envelope as every other durable file so torn or
// bit-rotted lease files are detected and quarantined, not misread.
type leaseImage struct {
	// Holder identifies the claiming worker (operator diagnosis only;
	// no decision ever branches on it matching a live process).
	Holder string
	// Token is the cell's fencing token: 1 on the first claim, bumped
	// by every reclaim, so each generation of holders is ordered.
	Token uint64
	// Renewals is the monotonic heartbeat counter; staleness is its
	// failure to advance, never a clock comparison.
	Renewals uint64
}

// errLeaseLost reports a renewal finding the lease gone or re-owned.
var errLeaseLost = errors.New("experiment: lease lost to a reclaimer")

// leaseState classifies one read of a lease file.
type leaseState int

const (
	leaseAbsent     leaseState = iota // no lease: the cell is claimable
	leaseHeld                         // verified lease present
	leaseUnreadable                   // read error (I/O, injected); not claimable this round
)

// leaseObs is one observer-side staleness record.
type leaseObs struct {
	token    uint64
	renewals uint64
	seen     time.Time // local monotonic reading at the last observed change
}

// leaseTable is one worker's view of one grid's leases.
type leaseTable struct {
	store     *store.Store
	dir       string
	holder    string
	ttl       time.Duration
	heartbeat time.Duration

	mu      sync.Mutex
	obs     map[int]leaseObs
	lastTok map[int]uint64 // highest token ever seen per cell
}

// openLeaseTable opens (creating if needed) the lease directory for one
// grid. key is the checkpoint directory's name, so leases and cells of
// the same parameterized run always pair up — and runs with different
// parameters can never contend for each other's cells.
func openLeaseTable(st *store.Store, key string, opt Options) (*leaseTable, error) {
	dir := filepath.Join(leaseRoot(st.Dir()), key)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiment: lease dir: %w", err)
	}
	return &leaseTable{
		store:     st,
		dir:       dir,
		holder:    opt.workerID(),
		ttl:       opt.leaseTTL(),
		heartbeat: opt.leaseHeartbeat(),
		obs:       make(map[int]leaseObs),
		lastTok:   make(map[int]uint64),
	}, nil
}

// path names cell i's lease file.
func (lt *leaseTable) path(i int) string {
	return filepath.Join(lt.dir, fmt.Sprintf("cell-%06d.lease", i))
}

// read loads and verifies cell i's lease. A corrupt lease — torn by a
// kill -9 mid-write, bit-rotted, or foreign — is quarantined through
// the store like any corrupt entry and reported absent, which makes the
// cell immediately claimable again.
func (lt *leaseTable) read(i int) (leaseImage, leaseState) {
	var img leaseImage
	st, _ := lt.store.Read(lt.path(i), store.Faults{}, func(data []byte) error {
		return store.Unseal(data, leaseVersion, &img)
	})
	switch st {
	case store.Hit:
	case store.Absent, store.Corrupt:
		return leaseImage{}, leaseAbsent
	default:
		return leaseImage{}, leaseUnreadable
	}
	lt.mu.Lock()
	if img.Token > lt.lastTok[i] {
		lt.lastTok[i] = img.Token
	}
	lt.mu.Unlock()
	return img, leaseHeld
}

// stale reports whether cell i's lease has missed a TTL of heartbeats,
// judged on this observer's monotonic clock. The first sighting of a
// (token, renewals) pair starts its clock; only the pair then failing
// to advance for a full TTL expires the lease.
func (lt *leaseTable) stale(i int, img leaseImage) bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	o, ok := lt.obs[i]
	if !ok || o.token != img.Token || o.renewals != img.Renewals {
		lt.obs[i] = leaseObs{token: img.Token, renewals: img.Renewals, seen: time.Now()}
		return false
	}
	return time.Since(o.seen) > lt.ttl
}

// forget drops cell i's staleness record (the cell completed).
func (lt *leaseTable) forget(i int) {
	lt.mu.Lock()
	delete(lt.obs, i)
	lt.mu.Unlock()
}

// claim tries to take cell i: acquire when absent, reclaim-then-acquire
// when stale, skip when held by a live peer or lost to a racer. The
// error return is reserved for acquire failures that are neither
// success nor contention — the caller counts those toward the
// no-lease fallback.
func (lt *leaseTable) claim(i int) (token uint64, claimed bool, err error) {
	img, st := lt.read(i)
	switch st {
	case leaseAbsent:
		lt.mu.Lock()
		tok := lt.lastTok[i] + 1
		lt.mu.Unlock()
		return lt.acquire(i, tok)
	case leaseHeld:
		if !lt.stale(i, img) {
			return 0, false, nil
		}
		bump(leaseExpired, 1)
		if !lt.reclaim(i, img) {
			return 0, false, nil // a racer won the reclaim; re-read next round
		}
		return lt.acquire(i, img.Token+1)
	default:
		return 0, false, fmt.Errorf("experiment: lease %s unreadable", lt.path(i))
	}
}

// acquire publishes a fresh lease for cell i through an exclusive
// link: of any number of racing workers exactly one wins, and a peer
// never reads a half-written lease (one it would quarantine as
// corrupt, taking a live lease away).
func (lt *leaseTable) acquire(i int, tok uint64) (uint64, bool, error) {
	if err := faultinject.Check(faultinject.LeaseAcquire); err != nil {
		return 0, false, err
	}
	data, err := store.Seal(leaseVersion, &leaseImage{Holder: lt.holder, Token: tok})
	if err == nil {
		err = store.LinkExclusive(lt.path(i), data)
	}
	if err != nil {
		if os.IsExist(err) {
			bump(leaseContended, 1)
			return 0, false, nil
		}
		return 0, false, err
	}
	bump(leaseAcquired, 1)
	lt.mu.Lock()
	if tok > lt.lastTok[i] {
		lt.lastTok[i] = tok
	}
	lt.mu.Unlock()
	return tok, true, nil
}

// renew advances the heartbeat counter of a held lease via temp file +
// atomic rename, so observers never read a torn renewal. Finding the
// lease gone or re-owned means a peer reclaimed it (it judged this
// worker dead): the holder records the loss and stops renewing — but
// keeps computing, because its published bytes are identical to the
// reclaimer's.
func (lt *leaseTable) renew(i int, tok uint64) error {
	img, st := lt.read(i)
	if st == leaseUnreadable {
		return fmt.Errorf("experiment: lease %s unreadable during renewal", lt.path(i))
	}
	if st == leaseAbsent || img.Token != tok || img.Holder != lt.holder {
		bump(leaseLost, 1)
		return errLeaseLost
	}
	if err := faultinject.Check(faultinject.LeaseRenew); err != nil {
		return err
	}
	img.Renewals++
	data, err := store.Seal(leaseVersion, &img)
	if err == nil {
		err = store.WriteAtomic(lt.path(i), data, store.Faults{})
	}
	if err != nil {
		return err
	}
	bump(leaseRenewed, 1)
	return nil
}

// release deletes a still-owned lease after its cell published. An
// injected or real failure here simply orphans the lease — harmless,
// because claims are only ever attempted on cells whose checkpoint is
// absent, and the fsck sweeps leases whose cell already published.
func (lt *leaseTable) release(i int, tok uint64) {
	if err := faultinject.Check(faultinject.LeaseRelease); err != nil {
		return
	}
	img, st := lt.read(i)
	if st == leaseHeld && img.Holder == lt.holder && img.Token == tok {
		os.Remove(lt.path(i))
	}
}

// reclaim takes a stale lease away from its dead holder by renaming it
// to a tokened marker file. The rename is the exactly-once arbiter:
// racing reclaimers name the same destination (they read the same
// token), so every loser's rename fails with ENOENT and exactly one
// worker counts the reclaim. The markers stay behind as the audit
// trail — one per reclaim, which is how the chaos harness proves
// "reclaimed exactly once".
func (lt *leaseTable) reclaim(i int, img leaseImage) bool {
	if err := faultinject.Check(faultinject.LeaseReclaim); err != nil {
		return false
	}
	dst := fmt.Sprintf("%s.reclaimed-%d", lt.path(i), img.Token)
	if err := os.Rename(lt.path(i), dst); err != nil {
		return false
	}
	bump(leaseReclaimed, 1)
	lt.forget(i)
	return true
}

// keepAlive renews cell i's lease every heartbeat interval until
// stopped. Renewal failures other than loss are retried next tick (the
// TTL spans several heartbeats, so transient failures don't expire the
// lease); a lost lease ends the loop.
func (lt *leaseTable) keepAlive(i int, tok uint64) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(lt.heartbeat)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if err := lt.renew(i, tok); errors.Is(err, errLeaseLost) {
					return
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
