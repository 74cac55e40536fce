package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"time"

	"knnshapley/internal/jobs"
	"knnshapley/internal/journal"
	"knnshapley/internal/wire"
)

// Replay reinstalls journaled jobs after a restart: queued/running jobs are
// re-submitted from their envelopes (progress restarts from zero — the
// journal records submissions, not partial results), terminal jobs still
// inside TTL come back as retrievable history, and anything older is
// dropped. A job whose envelope no longer resolves — its dataset vanished
// from the registry, or the envelope version is unknown — is restored as
// failed with a descriptive error instead of replaying a corrupt run.
func (s *Server) Replay(states []journal.JobState) {
	now := time.Now()
	ttl := s.mgr.TTL()
	var resubmitted, restored, expired int
	for _, js := range states {
		if journal.Terminal(js.State) {
			if now.Sub(js.Finished) > ttl {
				expired++
				continue
			}
			// A completed delta left its child dataset on disk, but the
			// lineage edge died with the process; re-applying the delta
			// (idempotent — content addressing mints the same child) restores
			// it, so post-restart valuations keep the O(ΔN) path.
			if js.State == journal.StateDone {
				s.reapplyDelta(js.ID, js.Envelope)
			}
			_, err := s.mgr.Restore(jobs.Restored{
				ID:       js.ID,
				State:    jobs.State(js.State),
				Err:      js.Err,
				Lost:     js.State == journal.StateDone,
				Created:  js.Created,
				Started:  js.Started,
				Finished: js.Finished,
				Envelope: js.Envelope,
			})
			if err != nil {
				log.Printf("svserver: journal replay: restore %s: %v", js.ID, err)
				continue
			}
			restored++
			continue
		}
		// Queued or running: re-run from the envelope. "Running" is treated
		// as queued — the lost process computed nothing durable, and a
		// re-run is bit-identical by the engine's determinism contract.
		if err := s.resubmit(js); err != nil {
			log.Printf("svserver: journal replay: job %s: %v", js.ID, err)
			if _, rerr := s.mgr.Restore(jobs.Restored{
				ID:       js.ID,
				State:    jobs.StateFailed,
				Err:      fmt.Sprintf("replay after restart failed: %v", err),
				Created:  js.Created,
				Finished: now,
				Envelope: js.Envelope,
			}); rerr != nil {
				log.Printf("svserver: journal replay: fail %s: %v", js.ID, rerr)
			}
			continue
		}
		resubmitted++
	}
	if len(states) > 0 {
		log.Printf("svserver: journal replay: %d re-submitted, %d restored as history, %d expired",
			resubmitted, restored, expired)
	}
}

// resubmit re-creates one queued/running job from its journal envelope,
// re-resolving the registry handles by dataset ID through the spec builder
// a live submission of its kind takes.
func (s *Server) resubmit(js journal.JobState) error {
	req, err := decodeEnvelope(js.Envelope)
	if err != nil {
		return err
	}
	var spec *jobs.Spec
	switch req := req.(type) {
	case *wire.ValueRequest:
		spec, _, err = s.buildSpec(req)
	case *wire.DeltaJob:
		spec, _, err = s.deltaSpec(req)
	case *wire.IndexRequest:
		spec, _, err = s.indexSpec(req)
	}
	if err != nil {
		return err
	}
	_, err = s.mgr.SubmitReplayed(js.ID, *spec)
	return err
}

// reapplyDelta re-applies a journaled, already-completed delta to rebuild
// its in-memory lineage edge after a restart. Best effort: content
// addressing makes the re-application idempotent, and a failure (the parent
// or append dataset has since been deleted) only costs the incremental path
// for that child, never correctness.
func (s *Server) reapplyDelta(id string, envelope []byte) {
	req, _ := decodeEnvelope(envelope)
	dj, ok := req.(*wire.DeltaJob)
	if !ok {
		return
	}
	if _, err := s.applyDelta(dj); err != nil {
		log.Printf("svserver: journal replay: lineage of delta job %s not restored: %v", id, err)
	}
}

// envelope serializes one job's by-reference request into a versioned
// wire.JobEnvelope of the given kind for the write-ahead journal (a value
// request's kind is "", which the envelope omits). It returns nil when the
// server runs without a journal or the request cannot be serialized: the
// job is then memory-only, which degrades durability, never submission.
func (s *Server) envelope(kind string, req any) []byte {
	if s.journal == nil {
		return nil
	}
	reqJSON, err := json.Marshal(req)
	if err == nil {
		var env []byte
		if env, err = json.Marshal(wire.JobEnvelope{V: wire.JobEnvelopeVersion, Kind: kind, Request: reqJSON}); err == nil {
			return env
		}
	}
	log.Printf("svserver: journal: serialize job envelope: %v", err)
	return nil
}

// envelopeKinds allocates, per journaled envelope kind, the by-reference
// request its Request JSON decodes into.
var envelopeKinds = map[string]func() any{
	"":                func() any { return new(wire.ValueRequest) }, // historical value envelopes
	wire.JobKindValue: func() any { return new(wire.ValueRequest) },
	wire.JobKindDelta: func() any { return new(wire.DeltaJob) },
	wire.JobKindIndex: func() any { return new(wire.IndexRequest) },
}

// decodeEnvelope decodes one journaled envelope into its request: a
// *wire.ValueRequest, *wire.DeltaJob or *wire.IndexRequest. A version or
// kind this build does not know is an error, never a guess.
func decodeEnvelope(envelope []byte) (any, error) {
	if len(envelope) == 0 {
		return nil, errors.New("no spec envelope in the journal")
	}
	var env wire.JobEnvelope
	if err := json.Unmarshal(envelope, &env); err != nil {
		return nil, fmt.Errorf("decode job envelope: %v", err)
	}
	if env.V != wire.JobEnvelopeVersion {
		return nil, fmt.Errorf("job envelope version %d not supported", env.V)
	}
	alloc, ok := envelopeKinds[env.Kind]
	if !ok {
		return nil, fmt.Errorf("job envelope kind %q not supported", env.Kind)
	}
	req := alloc()
	if err := json.Unmarshal(env.Request, req); err != nil {
		return nil, fmt.Errorf("decode journaled request: %v", err)
	}
	return req, nil
}
