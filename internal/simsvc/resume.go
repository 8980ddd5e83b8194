package simsvc

import (
	"encoding/json"
	"fmt"
)

// resumeJobs re-admits journal-replayed non-terminal sweeps at startup,
// each under its original ID, in submission (ID) order. The resume
// algorithm leans entirely on content addressing: a re-admitted job
// enqueues all of its cells, and every cell whose result survived in the
// persisted cache (or arrives from a peer) resolves as a cache hit —
// only the genuinely missing cells re-simulate. Resumed jobs bypass
// queue backpressure (they were admitted once already).
//
// A request that no longer resolves (e.g. a workload was unregistered
// between lives) is journaled as failed rather than retried forever, so
// the journal converges instead of replaying a poison job on every
// restart.
func (s *Service) resumeJobs(jobs []journalJob) {
	for _, jb := range jobs {
		var req SweepRequest
		if err := json.Unmarshal(jb.req, &req); err != nil {
			s.journal.terminal(jb.id, JobFailed)
			s.event("resume-failed", fmt.Sprintf("%s: bad journaled request: %v", jb.id, err))
			continue
		}
		j, err := s.submit(req, submitOpts{id: jb.id, resumed: true})
		if err != nil {
			s.journal.terminal(jb.id, JobFailed)
			s.event("resume-failed", fmt.Sprintf("%s: %v", jb.id, err))
			continue
		}
		st := j.Status()
		s.event("resume-started", fmt.Sprintf("%s: %d cells re-admitted", st.ID, st.Total))
	}
}
