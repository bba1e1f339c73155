"""Campaign service: async DSE-as-a-service with a multi-tenant scheduler.

Layers, bottom-up:

* :mod:`repro.service.machine` — :class:`CampaignStateMachine`, the
  ``ExplainableDSE.run()`` step loop as an explicit, pausable state
  machine (``ExplainableDSE.run()`` itself drives it).
* :mod:`repro.service.scheduler` — :class:`CampaignScheduler`,
  deterministic weighted-fair interleaving with per-tenant step quotas.
* :mod:`repro.service.service` — :class:`CampaignService`, the asyncio
  submit/status/cancel/result/stream-journal surface, with a crash-safe
  per-campaign spool.
* :mod:`repro.service.http` / :mod:`repro.service.client` — a
  stdlib-only JSON endpoint and its client (``repro-experiments serve``
  / ``submit``).

The machine layer imports no asyncio and is safe to import from the
core DSE; the service/http layers load lazily via module ``__getattr__``
so ``repro.service.machine`` stays cheap on the ``run()`` hot path.
"""

from __future__ import annotations

from repro.service.machine import (
    CampaignState,
    CampaignStateError,
    CampaignStateMachine,
    result_fingerprint,
)

__all__ = [
    "CampaignState",
    "CampaignStateError",
    "CampaignStateMachine",
    "result_fingerprint",
    "CampaignScheduler",
    "SchedulerError",
    "Slice",
    "TenantState",
    "CampaignService",
    "CampaignSpec",
    "ServiceError",
    "UnknownCampaignError",
    "ServiceOverloadError",
    "default_campaign_factory",
    "ServiceEndpoint",
    "ServiceClient",
    "ServiceClientError",
]

_LAZY = {
    "CampaignScheduler": "repro.service.scheduler",
    "SchedulerError": "repro.service.scheduler",
    "Slice": "repro.service.scheduler",
    "TenantState": "repro.service.scheduler",
    "CampaignService": "repro.service.service",
    "CampaignSpec": "repro.service.service",
    "ServiceError": "repro.service.service",
    "UnknownCampaignError": "repro.service.service",
    "ServiceOverloadError": "repro.service.service",
    "default_campaign_factory": "repro.service.service",
    "ServiceEndpoint": "repro.service.http",
    "ServiceClient": "repro.service.client",
    "ServiceClientError": "repro.service.client",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
