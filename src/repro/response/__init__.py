"""Closed-loop response: policy engine, action runner, recovery verification.

The paper's pipeline stops at detection + oMEDA diagnosis; this subsystem
closes the loop the way industrial anomaly-response stacks do:

* :mod:`repro.response.policy` — declarative rules mapping a confirmed
  alarm plus its oMEDA signature to a recovery action (the ``[response]``
  spec section).
* :mod:`repro.response.runner` — a step observer that applies the chosen
  action mid-run through the simulator's mutation seams, deterministically.
* :mod:`repro.response.verify` / :mod:`repro.response.metrics` — scoring
  whether the plant returned to in-control operation, per-run
  ``ResponseReport`` verdicts and the per-scenario recovery table.
* :mod:`repro.response.campaign` — response-enabled campaign execution
  (in-process, cache-bypassing, engine-identical seeds).
"""

from repro.common.lazy import lazy_exports
from repro.response.policy import ACTIONS, ActionSpec, ResponsePolicy

__all__ = [
    "ACTIONS",
    "ActionSpec",
    "ResponsePolicy",
    "ResponseRunner",
    "apply_action",
    "ActionRecord",
    "RecoveryTracker",
    "ResponseReport",
    "build_response_report",
    "ResponseReducer",
    "ResponseSummary",
    "build_response_table",
    "ResponseScenarioResult",
    "evaluate_scenario_response",
    "evaluate_all_response",
]


# A spec reads only the policy, so ``import repro.api`` leaves the runner,
# verification, metrics and campaign layers (and the live monitor they
# build on) unloaded until one of their names is read.
__getattr__ = lazy_exports(
    __name__,
    {
        "ResponseRunner": "repro.response.runner",
        "apply_action": "repro.response.runner",
        "ActionRecord": "repro.response.verify",
        "RecoveryTracker": "repro.response.verify",
        "ResponseReport": "repro.response.verify",
        "build_response_report": "repro.response.verify",
        "ResponseReducer": "repro.response.metrics",
        "ResponseSummary": "repro.response.metrics",
        "build_response_table": "repro.response.metrics",
        "ResponseScenarioResult": "repro.response.campaign",
        "evaluate_scenario_response": "repro.response.campaign",
        "evaluate_all_response": "repro.response.campaign",
    },
)
