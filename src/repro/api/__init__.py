"""``repro.api`` — the declarative campaign facade.

The one import a user of the reproduction needs:

    >>> from repro import api
    >>> spec = api.load_spec("examples/specs/paper.toml")
    >>> result = api.run(spec)
    >>> result.arl_table()

* :func:`load_spec` / :func:`loads_spec` / :func:`dump_spec` /
  :func:`dumps_spec` — read and write :class:`CampaignSpec` documents
  (TOML or JSON);
* :func:`run` / :func:`analyze` — execute a campaign (eager or streaming);
* :func:`run_live` — execute a campaign with live co-simulation monitoring
  and early stopping (the spec's ``[live]`` section, :mod:`repro.live`);
* :func:`run_response` — execute a campaign with the closed-loop response
  stack: policy-matched recovery actions applied mid-run on confirmed
  alarms (the spec's ``[response]`` section, :mod:`repro.response`);
* :func:`submit_spec` / :func:`poll` / :func:`fetch_tables` — hand a
  campaign to a distributed coordinator (the spec's ``[service]`` section,
  :mod:`repro.service`) and collect the same tables ``run`` would produce;
* :func:`serve_gateway` / :class:`StreamClient` — put the spec's
  calibrated monitor behind a streaming detection gateway (the spec's
  ``[gateway]`` section, :mod:`repro.gateway`) and feed/query plant
  streams against it;
* :class:`Session` — a reusable execution context that shares the engine,
  the result cache and per-seed calibrations across calls;
* the schema itself: :class:`CampaignSpec`, :class:`AnalysisSpec`,
  :class:`SweepSpec`, :data:`SPEC_VERSION`.

Scenario composition lives in :mod:`repro.experiments.injections` and the
name registry in :mod:`repro.experiments.registry`; both are re-exported by
:mod:`repro.experiments` for convenience.
"""

from repro.api.session import (
    CampaignResult,
    ResponseCampaignResult,
    Session,
    analyze,
    fetch_tables,
    poll,
    run,
    run_live,
    run_response,
    serve_gateway,
    submit_spec,
)
from repro.api.spec import (
    SPEC_VERSION,
    AnalysisSpec,
    CampaignSpec,
    SweepSpec,
    dump_spec,
    dumps_spec,
    load_spec,
    loads_spec,
)
from repro.common.config import EarlyStopPolicy, GatewayConfig, LiveConfig
from repro.common.lazy import lazy_exports
from repro.response.policy import ActionSpec, ResponsePolicy

__all__ = [
    "SPEC_VERSION",
    "CampaignSpec",
    "AnalysisSpec",
    "SweepSpec",
    "LiveConfig",
    "EarlyStopPolicy",
    "GatewayConfig",
    "ResponsePolicy",
    "ActionSpec",
    "load_spec",
    "loads_spec",
    "dump_spec",
    "dumps_spec",
    "run",
    "run_live",
    "run_response",
    "analyze",
    "submit_spec",
    "poll",
    "fetch_tables",
    "serve_gateway",
    "StreamClient",
    "Session",
    "CampaignResult",
    "ResponseCampaignResult",
]


# The gateway client brings the HTTP and TLS modules, which a campaign
# never needs: StreamClient loads when it is first read.
__getattr__ = lazy_exports(__name__, {"StreamClient": "repro.gateway.client"})
