package harness

import (
	"fmt"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
)

// JoinCluster is the shared cluster-mode front door of the workload
// runners: it validates the preconditions every multi-process run shares —
// a serializing transfer codec (pointer handoff cannot cross process
// boundaries) — then joins the mesh. A nil spec is the single-process case:
// no mesh, one process, index 0. The mesh's control channel then belongs to
// the process's one control plane (plan.ControlBus): the AutoController in
// a fixed-roster -auto run, the MembershipController in a membership run.
func JoinCluster(workload string, spec *dataflow.ClusterSpec, transfer core.Codec) (mesh *dataflow.Mesh, procs, proc int, err error) {
	if spec == nil {
		return nil, 1, 0, nil
	}
	if transfer != nil && core.IsDirectCodec(transfer) {
		return nil, 0, 0, fmt.Errorf("%s: the direct transfer codec cannot cross process boundaries; use gob or binary", workload)
	}
	mesh, err = dataflow.JoinMesh(*spec)
	if err != nil {
		return nil, 0, 0, err
	}
	return mesh, mesh.Procs(), mesh.Process(), nil
}
