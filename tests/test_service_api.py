"""End-to-end tests for the campaign service, HTTP endpoint, and the
per-campaign journal routing (one campaign per journal file, exclusive
lock against collisions)."""

import asyncio
import json
import subprocess
import sys

import pytest

from repro.arch import build_edge_design_space
from repro.core.dse.constraints import Constraint, Sense
from repro.core.dse.explainable import ExplainableDSE
from repro.cost.evaluator import CostEvaluator
from repro.mapping.mapper import TopNMapper
from repro.perf.mapping_cache import MappingCache
from repro.service.machine import result_fingerprint
from repro.service.service import CampaignService, CampaignSpec, ServiceError
from repro.telemetry import JsonlSink, Tracer
from repro.telemetry.sinks import JournalLockedError


def _constraints():
    return [
        Constraint("area", "area_mm2", 75.0),
        Constraint("power", "power_w", 4.0),
        Constraint("throughput", "throughput", 200.0, Sense.GEQ),
    ]


@pytest.fixture(scope="module")
def factory(tiny_workload):
    def build(spec):
        return ExplainableDSE(
            build_edge_design_space(),
            CostEvaluator(
                tiny_workload,
                TopNMapper(top_n=60),
                mapping_cache=MappingCache(),
            ),
            _constraints(),
            max_evaluations=spec.iterations,
        )

    return build


@pytest.fixture(scope="module")
def solo(factory, tmp_path_factory):
    """Solo run() references keyed by iteration budget."""
    references = {}

    def reference(budget):
        if budget not in references:
            journal = (
                tmp_path_factory.mktemp("solo") / f"solo-{budget}.jsonl"
            )
            tracer = Tracer(JsonlSink(journal))
            result = factory(
                CampaignSpec(model="tiny", iterations=budget)
            ).run(tracer=tracer)
            tracer.close()
            references[budget] = (
                result_fingerprint(result),
                journal.read_bytes(),
            )
        return references[budget]

    return reference


class TestServiceLifecycle:
    def test_interleaved_campaigns_match_solo(
        self, factory, solo, tmp_path
    ):
        async def run():
            service = CampaignService(
                tmp_path / "spool", campaign_factory=factory, quantum=1
            )
            await service.start()
            ids = [
                await service.submit(
                    CampaignSpec(model="tiny", tenant=t, iterations=12)
                )
                for t in ("alice", "bob", "alice")
            ]
            statuses = [await service.wait(cid) for cid in ids]
            await service.stop()
            return service, ids, statuses

        service, ids, statuses = asyncio.run(run())
        expected_fp, expected_journal = solo(12)
        assert [s["status"] for s in statuses] == ["finished"] * 3
        for cid in ids:
            assert service.result(cid)["fingerprint"] == expected_fp
            journal = tmp_path / "spool" / cid / "journal.jsonl"
            # Identical config => byte-identical journal, per campaign,
            # despite the interleaving.
            assert journal.read_bytes() == expected_journal
        # The scheduler actually interleaved the two tenants.
        first_two = {cid for cid, _ in service.slice_log[:2]}
        assert len(first_two) == 2

    def test_restart_resumes_from_checkpoint(
        self, factory, solo, tmp_path
    ):
        """Service stopped mid-run; a fresh service on the same spool
        finishes every campaign with the solo fingerprint."""

        async def phase1():
            service = CampaignService(
                tmp_path / "spool", campaign_factory=factory, quantum=1
            )
            await service.start()
            ids = [
                await service.submit(
                    CampaignSpec(model="tiny", tenant=t, iterations=12)
                )
                for t in ("alice", "bob")
            ]
            while len(service.slice_log) < 3:
                await asyncio.sleep(0.01)
            await service.stop()
            return ids, [service.status(c)["status"] for c in ids]

        async def phase2(ids):
            service = CampaignService(
                tmp_path / "spool", campaign_factory=factory, quantum=1
            )
            await service.start()
            for cid in ids:
                await service.wait(cid)
            results = {cid: service.result(cid) for cid in ids}
            await service.stop()
            return results

        ids, mid_statuses = asyncio.run(phase1())
        assert any(s in ("checkpointed", "queued") for s in mid_statuses)
        results = asyncio.run(phase2(ids))
        expected_fp, _ = solo(12)
        for cid in ids:
            assert results[cid]["fingerprint"] == expected_fp

    def test_cancel_running_campaign(self, factory, tmp_path):
        async def run():
            service = CampaignService(
                tmp_path / "spool", campaign_factory=factory, quantum=1
            )
            await service.start()
            keep = await service.submit(
                CampaignSpec(model="tiny", tenant="alice", iterations=12)
            )
            victim = await service.submit(
                CampaignSpec(model="tiny", tenant="bob", iterations=12)
            )
            while len(service.slice_log) < 2:
                await asyncio.sleep(0.01)
            await service.cancel(victim)
            victim_status = await service.wait(victim)
            keep_status = await service.wait(keep)
            await service.stop()
            return service, keep, victim, keep_status, victim_status

        service, keep, victim, keep_status, victim_status = asyncio.run(
            run()
        )
        assert victim_status["status"] == "cancelled"
        assert keep_status["status"] == "finished"
        with pytest.raises(ServiceError):
            service.result(victim)

    def test_quota_starves_visibly(self, factory, tmp_path):
        async def run():
            service = CampaignService(
                tmp_path / "spool",
                campaign_factory=factory,
                quantum=1,
                default_quota=None,
            )
            await service.start()
            cid = await service.submit(
                CampaignSpec(
                    model="tiny",
                    tenant="alice",
                    iterations=12,
                    tenant_quota=1,
                )
            )
            for _ in range(400):
                await asyncio.sleep(0.01)
                if service.status(cid)["status"] == "starved":
                    break
            starved = service.status(cid)
            service.grant_quota("alice", 100)
            final = await service.wait(cid)
            await service.stop()
            return starved, final

        starved, final = asyncio.run(run())
        assert starved["status"] == "starved"
        assert starved["tenant_state"]["quota_exhausted"] is True
        assert final["status"] == "finished"

    def test_status_carries_slo_state(self, factory, tmp_path):
        async def run():
            service = CampaignService(
                tmp_path / "spool", campaign_factory=factory, quantum=1
            )
            await service.start()
            cid = await service.submit(
                CampaignSpec(model="tiny", tenant="alice", iterations=10)
            )
            final = await service.wait(cid)
            await service.stop()
            return final

        final = asyncio.run(run())
        assert final["slo"]["breaker"]["tripped"] is False
        assert final["slo"]["quarantined_trials"] == 0
        assert final["tenant_state"]["tenant"] == "alice"

    def test_zero_iteration_campaign_fails(self, tmp_path):
        """An HTTP submission skips the CLI's positive-int check, so the
        service must refuse a zero budget at submission rather than
        spend an evaluation it was not given; the default factory
        refuses it too."""
        from repro.service.service import default_campaign_factory

        async def run():
            service = CampaignService(tmp_path / "spool")
            await service.start()
            try:
                with pytest.raises(ValueError, match="iterations"):
                    await service.submit(
                        CampaignSpec(model="resnet18", iterations=0)
                    )
                return service.list_campaigns()
            finally:
                await service.stop()

        assert asyncio.run(run()) == []
        with pytest.raises(ValueError, match="max_evaluations must be >= 1"):
            default_campaign_factory(
                CampaignSpec(model="resnet18", iterations=0)
            )

    def test_unknown_campaign_raises(self, factory, tmp_path):
        async def run():
            service = CampaignService(
                tmp_path / "spool", campaign_factory=factory
            )
            await service.start()
            try:
                with pytest.raises(ServiceError):
                    service.status("c9999")
                with pytest.raises(ServiceError):
                    service.result("c9999")
            finally:
                await service.stop()

        asyncio.run(run())


class TestHttpEndpoint:
    def test_full_http_round_trip(self, factory, solo, tmp_path):
        from repro.service.client import ServiceClient, ServiceClientError
        from repro.service.http import ServiceEndpoint

        async def run():
            service = CampaignService(
                tmp_path / "spool", campaign_factory=factory, quantum=1
            )
            await service.start()
            endpoint = ServiceEndpoint(service)  # port 0: pick free port
            await endpoint.start()
            client = ServiceClient(f"http://127.0.0.1:{endpoint.port}")

            health = await asyncio.to_thread(client.healthz)
            assert health["ok"] is True
            assert health["status"] == "ok"
            assert health["counters"]["shed_429"] == 0
            cid = await asyncio.to_thread(
                client.submit,
                {"model": "tiny", "tenant": "alice", "iterations": 10},
            )
            final = await asyncio.to_thread(client.wait, cid, 300)
            assert final["status"] == "finished"
            result = await asyncio.to_thread(client.result, cid)
            listed = await asyncio.to_thread(client.list_campaigns)
            assert [c["campaign_id"] for c in listed] == [cid]
            journal_lines = await asyncio.to_thread(client.journal, cid)
            with pytest.raises(ServiceClientError) as missing:
                await asyncio.to_thread(client.status, "c9999")
            assert missing.value.status == 404

            await endpoint.stop()
            await service.stop()
            return cid, result, journal_lines

        cid, result, journal_lines = asyncio.run(run())
        expected_fp, expected_journal = solo(10)
        assert result["fingerprint"] == expected_fp
        # The journal stream serves exactly the solo journal's records.
        assert journal_lines == (
            expected_journal.decode().strip().splitlines()
        )

    def test_journal_offset_and_bad_requests(self, factory, tmp_path):
        import urllib.request

        from repro.service.client import ServiceClient, ServiceClientError
        from repro.service.http import ServiceEndpoint

        async def run():
            service = CampaignService(
                tmp_path / "spool", campaign_factory=factory, quantum=1
            )
            await service.start()
            endpoint = ServiceEndpoint(service)
            await endpoint.start()
            base = f"http://127.0.0.1:{endpoint.port}"
            client = ServiceClient(base)
            cid = await asyncio.to_thread(
                client.submit, {"model": "tiny", "iterations": 8}
            )
            await asyncio.to_thread(client.wait, cid, 300)
            full = await asyncio.to_thread(client.journal, cid)
            tail = await asyncio.to_thread(client.journal, cid, 5)
            assert tail == full[5:]

            with pytest.raises(ServiceClientError) as bad:
                await asyncio.to_thread(client.submit, {"tenant": "x"})
            assert bad.value.status == 400

            def bad_route():
                try:
                    urllib.request.urlopen(f"{base}/v1/nope", timeout=10)
                except urllib.error.HTTPError as exc:
                    return exc.code

            assert (await asyncio.to_thread(bad_route)) == 404
            await endpoint.stop()
            await service.stop()

        asyncio.run(run())


class TestFrontierEndpoint:
    """GET /v1/campaigns/{id}/frontier: the journaled Pareto archive."""

    def _expected_frontier(self, factory, budget):
        """The frontier a solo run's trial ledger produces."""
        from repro.experiments.pareto import archive_from_results

        result = factory(CampaignSpec(model="tiny", iterations=budget)).run()
        return archive_from_results([result]).snapshot()

    def test_frontier_http_round_trip(self, factory, tmp_path):
        from repro.service.client import ServiceClient
        from repro.service.http import ServiceEndpoint

        async def run():
            service = CampaignService(
                tmp_path / "spool", campaign_factory=factory, quantum=1
            )
            await service.start()
            endpoint = ServiceEndpoint(service)
            await endpoint.start()
            client = ServiceClient(f"http://127.0.0.1:{endpoint.port}")
            cid = await asyncio.to_thread(
                client.submit, {"model": "tiny", "iterations": 12}
            )
            await asyncio.to_thread(client.wait, cid, 300)
            payload = await asyncio.to_thread(client.frontier, cid)
            await endpoint.stop()
            await service.stop()
            return cid, payload

        cid, payload = asyncio.run(run())
        assert payload["campaign_id"] == cid
        assert payload["objectives"] == [
            "latency_ms",
            "energy_mj",
            "area_mm2",
            "power_w",
        ]
        expected = self._expected_frontier(factory, 12)
        assert payload["size"] == len(expected) > 0
        assert payload["frontier"] == expected
        assert (tmp_path / "spool" / cid / "frontier.jsonl").exists()

    def test_empty_frontier_is_200(self, tiny_workload, tmp_path):
        """A campaign with no feasible design serves an empty frontier,
        not an error."""
        from repro.service.client import ServiceClient
        from repro.service.http import ServiceEndpoint

        def hopeless_factory(spec):
            return ExplainableDSE(
                build_edge_design_space(),
                CostEvaluator(
                    tiny_workload,
                    TopNMapper(top_n=60),
                    mapping_cache=MappingCache(),
                ),
                [Constraint("area", "area_mm2", 1e-6)],
                max_evaluations=spec.iterations,
            )

        async def run():
            service = CampaignService(
                tmp_path / "spool",
                campaign_factory=hopeless_factory,
                quantum=1,
            )
            await service.start()
            endpoint = ServiceEndpoint(service)
            await endpoint.start()
            client = ServiceClient(f"http://127.0.0.1:{endpoint.port}")
            cid = await asyncio.to_thread(
                client.submit, {"model": "tiny", "iterations": 6}
            )
            await asyncio.to_thread(client.wait, cid, 300)
            payload = await asyncio.to_thread(client.frontier, cid)
            await endpoint.stop()
            await service.stop()
            return payload

        payload = asyncio.run(run())
        assert payload["size"] == 0
        assert payload["frontier"] == []

    def test_frontier_unknown_campaign_404(self, factory, tmp_path):
        from repro.service.client import ServiceClient, ServiceClientError
        from repro.service.http import ServiceEndpoint

        async def run():
            service = CampaignService(
                tmp_path / "spool", campaign_factory=factory
            )
            await service.start()
            endpoint = ServiceEndpoint(service)
            await endpoint.start()
            client = ServiceClient(f"http://127.0.0.1:{endpoint.port}")
            with pytest.raises(ServiceClientError) as missing:
                await asyncio.to_thread(client.frontier, "c9999")
            await endpoint.stop()
            await service.stop()
            return missing.value.status

        assert asyncio.run(run()) == 404

    def test_frontier_identical_across_restart(self, factory, tmp_path):
        """Kill the service mid-campaign; the resumed run — and a later
        cold recovery serving from frontier.jsonl — produce the exact
        frontier an uninterrupted run would."""

        async def phase1():
            service = CampaignService(
                tmp_path / "spool", campaign_factory=factory, quantum=1
            )
            await service.start()
            cid = await service.submit(
                CampaignSpec(model="tiny", tenant="alice", iterations=12)
            )
            while len(service.slice_log) < 2:
                await asyncio.sleep(0.01)
            await service.stop()
            return cid

        async def phase2(cid):
            service = CampaignService(
                tmp_path / "spool", campaign_factory=factory, quantum=1
            )
            await service.start()
            await service.wait(cid)
            frontier = service.frontier(cid)
            await service.stop()
            return frontier

        async def phase3(cid):
            # A third service on the same spool recovers the campaign as
            # settled (no live machine) and must serve the identical
            # frontier by replaying frontier.jsonl.
            service = CampaignService(
                tmp_path / "spool", campaign_factory=factory, quantum=1
            )
            await service.start()
            frontier = service.frontier(cid)
            await service.stop()
            return frontier

        cid = asyncio.run(phase1())
        resumed = asyncio.run(phase2(cid))
        recovered = asyncio.run(phase3(cid))
        expected = self._expected_frontier(factory, 12)
        assert resumed["frontier"] == expected
        assert recovered["frontier"] == expected


class TestJournalExclusivity:
    def test_second_sink_on_same_journal_rejected(self, tmp_path):
        journal = tmp_path / "one.jsonl"
        sink = JsonlSink(journal, exclusive=True)
        with pytest.raises(JournalLockedError):
            JsonlSink(journal, exclusive=True)
        sink.close()
        # Lock released on close: the path is reusable.
        JsonlSink(journal, exclusive=True).close()

    def test_stale_lock_from_dead_process_is_stolen(self, tmp_path):
        journal = tmp_path / "stale.jsonl"
        # A real pid that is certainly dead by the time we check.
        proc = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True,
            text=True,
            check=True,
        )
        dead_pid = int(proc.stdout.strip())
        (tmp_path / "stale.jsonl.lock").write_text(str(dead_pid))
        sink = JsonlSink(journal, exclusive=True)  # steals, no raise
        sink.close()

    def test_unreadable_lock_is_stolen(self, tmp_path):
        journal = tmp_path / "junk.jsonl"
        (tmp_path / "junk.jsonl.lock").write_text("not-a-pid")
        JsonlSink(journal, exclusive=True).close()

    def test_service_routes_journals_per_campaign(self, factory, tmp_path):
        async def run():
            service = CampaignService(
                tmp_path / "spool", campaign_factory=factory, quantum=1
            )
            await service.start()
            ids = [
                await service.submit(
                    CampaignSpec(model="tiny", tenant="t", iterations=8)
                )
                for _ in range(2)
            ]
            for cid in ids:
                await service.wait(cid)
            await service.stop()
            return ids

        ids = asyncio.run(run())
        journals = [
            tmp_path / "spool" / cid / "journal.jsonl" for cid in ids
        ]
        assert all(j.exists() for j in journals)
        assert len({str(j) for j in journals}) == 2
        # Each journal decodes cleanly on its own — no interleaving.
        for journal in journals:
            for line in journal.read_text().splitlines():
                json.loads(line)


class TestSpecRoundTrip:
    def test_spec_dict_round_trip(self):
        spec = CampaignSpec(
            model="resnet18",
            tenant="alice",
            iterations=7,
            tenant_weight=2,
            tenant_quota=30,
        )
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_ignores_unknown_keys(self):
        # Spooled submission records and existing clients' bodies still
        # carry the retired ``shm_eval`` field.
        spec = CampaignSpec.from_dict(
            {"model": "m", "bogus": 1, "shm_eval": False}
        )
        assert spec.model == "m"

    def test_default_factory_runs_fused(self):
        from repro.service.service import default_campaign_factory

        dse = default_campaign_factory(
            CampaignSpec(model="resnet18", iterations=1)
        )
        batch = dse.evaluator.perf_summary()["batch_eval"]
        assert batch["fused_enabled"] is True


class TestSpecValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("tenant", 3),
            ("iterations", 0),
            ("iterations", "5"),
            ("iterations", True),
            ("tenant_weight", 0),
            ("tenant_weight", 2.0),
            ("tenant_quota", "abc"),
            ("tenant_quota", -3),
            ("deadline_s", 0),
            ("deadline_s", -1.0),
            ("deadline_s", float("inf")),
            ("deadline_s", float("nan")),
            ("deadline_s", "soon"),
            ("idempotency_key", 5),
        ],
    )
    def test_malformed_field_is_rejected(self, field, value):
        spec = CampaignSpec(model="tiny", **{field: value})
        with pytest.raises(ValueError, match=field):
            spec.validate()

    @pytest.mark.parametrize(
        "fields",
        [
            {},
            {"tenant_quota": 0, "tenant_weight": 3},
            {"deadline_s": 2.5, "idempotency_key": "k"},
            {"deadline_s": 1, "iterations": 1},
        ],
    )
    def test_wellformed_spec_passes(self, fields):
        CampaignSpec(model="tiny", **fields).validate()

    def test_bad_spec_leaves_other_tenants_running(self, factory, tmp_path):
        """A quota the scheduler cannot compare is refused at
        submission: inside the scheduling loop that every tenant shares
        it would strand the other tenants' campaigns."""

        async def run():
            service = CampaignService(
                tmp_path / "spool", campaign_factory=factory, quantum=1
            )
            await service.start()
            first = await service.submit(
                CampaignSpec(model="tiny", tenant="a", iterations=6)
            )
            with pytest.raises(ValueError, match="tenant_quota"):
                await service.submit(
                    CampaignSpec(
                        model="tiny", tenant="b", iterations=6,
                        tenant_quota="abc",
                    )
                )
            later = await service.submit(
                CampaignSpec(model="tiny", tenant="c", iterations=6)
            )
            statuses = [await service.wait(cid) for cid in (first, later)]
            listed = service.list_campaigns()
            await service.stop()
            return statuses, listed

        statuses, listed = asyncio.run(run())
        assert [s["status"] for s in statuses] == ["finished", "finished"]
        assert len(listed) == 2

    def test_http_bad_spec_is_400(self, factory, tmp_path):
        from repro.service.client import ServiceClient, ServiceClientError
        from repro.service.http import ServiceEndpoint

        async def run():
            service = CampaignService(
                tmp_path / "spool", campaign_factory=factory
            )
            await service.start()
            endpoint = ServiceEndpoint(service)
            await endpoint.start()
            client = ServiceClient(f"http://127.0.0.1:{endpoint.port}")
            codes = []
            for extra in (
                {"tenant_quota": "abc"},
                {"tenant_quota": -3},
                {"deadline_s": "soon"},
            ):
                with pytest.raises(ServiceClientError) as bad:
                    await asyncio.to_thread(
                        client.submit, dict(model="tiny", **extra)
                    )
                codes.append(bad.value.status)
            listed = service.list_campaigns()
            await endpoint.stop()
            await service.stop()
            return codes, listed

        codes, listed = asyncio.run(run())
        assert codes == [400, 400, 400]
        assert listed == []


class TestEnergyObjectiveCampaign:
    def test_energy_campaign_runs_fused_like_scalar_solo(self, tmp_path):
        """An energy-objective campaign reaches the fused block (every
        service campaign passes ``fused_eval=True``) and finishes with
        the fingerprint of the same campaign run alone on the scalar
        reference."""
        from repro.experiments.setup import edge_constraints
        from repro.telemetry import RunSummary, read_journal
        from repro.workloads.registry import load_workload

        spec = CampaignSpec(
            model="resnet18", iterations=6, objective="energy", top_n=40
        )

        async def run():
            service = CampaignService(tmp_path / "spool")
            await service.start()
            cid = await service.submit(spec)
            status = await service.wait(cid)
            await service.stop()
            return service, cid, status

        service, cid, status = asyncio.run(run())
        assert status["status"] == "finished"
        (summary,) = [
            event
            for event in read_journal(service.journal_path(cid))
            if isinstance(event, RunSummary)
        ]
        assert summary.counters["batch_eval"]["fused_blocks"] > 0
        reference = ExplainableDSE(
            build_edge_design_space(),
            CostEvaluator(
                load_workload("resnet18"),
                TopNMapper(top_n=40, objective="energy", batch_eval=False),
                mapping_cache=MappingCache(),
            ),
            edge_constraints("resnet18"),
            max_evaluations=6,
        ).run()
        assert service.result(cid)["fingerprint"] == result_fingerprint(
            reference
        )
