"""Multi-user support: cooperation and concurrency control (R8/R9).

Three layers reproduce the paper's section 7 multi-user experiments:

* :mod:`repro.concurrency.workspace` — **long transactions as
  cooperative workspaces**: users check nodes out of a shared database
  into private workspaces, edit locally, and check back in to make
  their updates shareable (requirement R9's scenario verbatim);
* :mod:`repro.concurrency.optimistic` — **optimistic concurrency
  control** over the object engine, with read-set validation at commit
  (the scheme the systems the authors benchmarked used, and the reason
  they found conflicting updates hard to stage);
* :mod:`repro.concurrency.sessions` — deterministic multi-user
  scenario drivers used by the example application and the tests.
"""

from repro.concurrency.workspace import SharedStore, Workspace
from repro.concurrency.optimistic import OptimisticCoordinator, OptimisticTransaction
from repro.concurrency.sessions import (
    CooperativeScenarioResult,
    run_cooperative_scenario,
    run_conflicting_scenario,
)
from repro.concurrency.multiuser import (
    MultiUserHarness,
    ParallelLoadResult,
    TransactionLoadResult,
    UpdateLoadResult,
)

__all__ = [
    "SharedStore",
    "Workspace",
    "OptimisticCoordinator",
    "OptimisticTransaction",
    "CooperativeScenarioResult",
    "run_cooperative_scenario",
    "run_conflicting_scenario",
    "MultiUserHarness",
    "ParallelLoadResult",
    "TransactionLoadResult",
    "UpdateLoadResult",
]
