"""The availability campaign: committed spec, SLO verdicts, CLI surface."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.chaos.availability import (
    SCENARIOS,
    SCRUB_MAX_CYCLES,
    SCRUB_TARGETS,
    decode_version,
    recovery_allowance_us,
    run_campaign,
    run_scenario,
    version_content,
)
from repro.replication.service import ReplicationService

#: The committed campaign report: ``--all`` must reproduce it byte for
#: byte, so every scenario's report is part of the behavioural spec.
COMMITTED = Path(__file__).resolve().parents[2] / "AVAILABILITY_pr10.json"


def by_name(name):
    return next(s for s in SCENARIOS if s.name == name)


@pytest.fixture(scope="module")
def reports():
    """Run each scenario at most once per module; returns a getter."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = run_scenario(by_name(name))
        return cache[name]

    return get


class TestCommittedArtifact:
    @pytest.mark.parametrize("name", [s.name for s in SCENARIOS])
    def test_matches_committed(self, reports, name):
        # Determinism and behaviour at once: the scenario reproduces its
        # committed entry exactly, in JSON form.
        committed = json.loads(COMMITTED.read_text())["scenarios"][name]
        assert json.loads(json.dumps(reports(name))) == committed

    def test_catalogue_is_the_committed_set(self):
        committed = json.loads(COMMITTED.read_text())["scenarios"]
        assert sorted(s.name for s in SCENARIOS) == sorted(committed)


class TestVersionCodec:
    def test_decode_accepts_one_unacked_version_past_the_reference(self):
        # An applied-but-unacked write one past the reference, on a file
        # past 250 acked versions, is version 301 — not its alias 50.
        assert decode_version(version_content(301, 96), 300) == 301
        assert decode_version(version_content(299, 96), 300) == 299
        # Writes go one version at a time, so that is the only forward
        # drift: a read 200 behind the acked version is stale, not 51
        # ahead of it.
        assert decode_version(version_content(100, 96), 300) == 100
        assert decode_version(version_content(150, 96), 300) == 150

    def test_decode_round_trips_near_the_reference(self):
        for reference in (0, 1, 124, 125, 126, 250, 251, 1000):
            # 250 behind aliases one ahead, which wins.
            low = max(0, reference - 249)
            for version in range(low, reference + 2):
                data = version_content(version, 8)
                assert decode_version(data, reference) == version

    def test_decode_rejects_torn_and_foreign_content(self):
        assert decode_version(b"", 3) is None
        assert decode_version(b"\x05\x06", 3) is None
        assert decode_version(b"\x00" * 4, 3) is None


class TestScenarioCatalogue:
    def test_names_unique(self):
        names = [scenario.name for scenario in SCENARIOS]
        assert len(names) == len(set(names))

    def test_allowance_is_parametric(self):
        scenario = by_name("clean_restarts")
        allowance = recovery_allowance_us(scenario, scenario.config["fault_profile"])
        # The bound is built from configured constants: breaker
        # cooldown plus one worst-case slow call plus slack — so it
        # moves when the policies move, never by empirical tuning.
        assert allowance > 150_000  # at least the breaker cooldown
        assert allowance < 2_000_000  # and far below a whole run


class TestCleanRestarts:
    @pytest.fixture
    def report(self, reports):
        return reports("clean_restarts")

    def test_passes_its_slo(self, report):
        assert report["status"] == "pass"
        assert report["violations"] == []

    def test_crashes_really_happened(self, report):
        counters = report["counters"]
        assert counters["recovery.crashes_injected"] == 2
        assert counters["recovery.restarts_injected"] == 2
        assert counters["cluster.volume_failures"] == 2
        # The workload really hit the dead volumes: failovers and
        # skip-down routing occurred, then resync repaired the replicas.
        assert counters["replication.failovers"] > 0
        assert counters["replication.resyncs_verified"] > 0
        assert counters["health.recoveries"] >= 2

    def test_writes_made_progress(self, report):
        acked = report["final_versions"]["acked"]
        assert all(version > 0 for version in acked.values())
        assert report["final_versions"]["agent_writes_acked"] > 0

    def test_unavailability_bounded(self, report):
        unavailability = report["unavailability"]
        assert unavailability["out_of_bound"] == []
        scenario = by_name("clean_restarts")
        allowance = recovery_allowance_us(scenario, scenario.config["fault_profile"])
        assert unavailability["allowance_us"] == allowance


class TestScrubScenarios:
    """The two media-failure scenarios and their SLOs."""

    @pytest.fixture
    def rot_report(self, reports):
        return reports("scrub_latent_rot")

    @pytest.fixture
    def media_report(self, reports):
        return reports("scrub_media_errors")

    def test_rot_scenario_passes_both_slos(self, rot_report):
        assert rot_report["status"] == "pass"
        assert rot_report["violations"] == []

    def test_injected_corruptions_all_found_and_repaired(self, rot_report):
        injected = set(rot_report["injected"]["fragments"])
        assert len(injected) == SCRUB_TARGETS
        found = {start for _, _, _, start, _, _ in rot_report["findings"]}
        assert injected <= found
        # SLO-1: the volume is clean within the bounded cycle budget.
        assert 1 <= rot_report["cycles_to_clean"] <= SCRUB_MAX_CYCLES

    def test_repairs_used_both_redundancy_tiers(self, rot_report):
        counters = rot_report["counters"]
        # Mirrored extents (the FIT) healed locally from stable...
        assert counters["disk_server.0.stable_repairs"] >= 1
        # ...and plain data fragments were quarantined and resynced
        # from a peer replica through the recovery health machinery.
        assert rot_report["routed_to_replication"] > 0
        assert counters["replication.media_quarantines"] >= 1
        assert counters["replication.resyncs_verified"] >= 1

    def test_no_corrupt_byte_reached_a_client(self, rot_report):
        # SLO-2: every client-path read during the scenario was either
        # bit-exact or a loud error — reads_checked counts the former,
        # direct_read_errors the latter; a silent wrong byte would have
        # been a violation.
        assert rot_report["reads_checked"] > 0
        assert rot_report["violations"] == []

    def test_media_error_scenario_passes(self, media_report):
        assert media_report["status"] == "pass"
        assert media_report["violations"] == []
        assert media_report["injected"]["kind"] == "media"
        assert any(
            kind == "media" for _, _, kind, _, _, _ in media_report["findings"]
        )

    def test_replica_left_stale_by_scrub_repair_fails(self, monkeypatch):
        # A quarantine that marks the damaged replicas stale but never
        # resyncs them must fail the repair SLO: the check sees the
        # state exactly as the scrubber left it, with no later resync.
        def quarantine_without_resync(self, volume_id):
            for replica_set in self._sets.values():
                if any(n.volume_id == volume_id for n in replica_set.replicas):
                    replica_set.stale.add(volume_id)
            return 0

        monkeypatch.setattr(
            ReplicationService, "quarantine_volume_media", quarantine_without_resync
        )
        report = run_scenario(by_name("scrub_latent_rot"))
        assert report["status"] == "fail"
        assert any(
            "replicas still stale after scrub repair" in violation
            for violation in report["violations"]
        )


class TestRaidScenarios:
    """The two RAID-tier scenarios and their SLOs."""

    @pytest.fixture
    def loss_report(self, reports):
        return reports("raid_member_loss")

    @pytest.fixture
    def interrupted_report(self, reports):
        return reports("raid_rebuild_interrupted")

    def test_member_loss_passes_its_slo(self, loss_report):
        assert loss_report["status"] == "pass"
        assert loss_report["violations"] == []

    def test_volume_served_through_the_degraded_window(self, loss_report):
        # Zero failed operations is the whole point: unlike a volume
        # crash, member loss must cost no availability at all — and the
        # coverage counters prove the window was actually traversed.
        ops = loss_report["ops"]
        assert ops["reads_degraded"] > 0
        assert ops["writes_degraded"] > 0
        counters = loss_report["counters"]
        assert counters["raid.0.degraded_reads"] > 0
        assert counters["raid.0.degraded_writes"] > 0
        # Degraded partial-row updates armed the write-intent journal.
        assert counters["raid.0.journal_arms"] > 0

    def test_member_loss_walks_the_state_machine(self, loss_report):
        transitions = [
            (old, new) for _, old, new in loss_report["state_log"]
        ]
        assert transitions == [
            ("OPTIMAL", "DEGRADED"),
            ("DEGRADED", "REBUILDING"),
            ("REBUILDING", "OPTIMAL"),
        ]
        assert loss_report["counters"]["raid.0.rebuild.chunks"] > 0
        assert len(loss_report["member_windows"]) == 1

    def test_interrupted_rebuild_degrades_instead_of_failing(
        self, interrupted_report
    ):
        assert interrupted_report["status"] == "pass"
        assert interrupted_report["violations"] == []
        transitions = [
            (old, new) for _, old, new in interrupted_report["state_log"]
        ]
        # The second kill lands mid-rebuild: REBUILDING -> DEGRADED
        # (never FAILED — three healthy members remain), then the
        # second replacement rebuilds to OPTIMAL before the finale.
        assert ("REBUILDING", "DEGRADED") in transitions
        assert transitions.count(("REBUILDING", "OPTIMAL")) == 1
        scripted = transitions[: transitions.index(("REBUILDING", "OPTIMAL")) + 1]
        assert all(new != "FAILED" for _, new in scripted)
        assert interrupted_report["counters"]["cluster.member_replacements"] == 2

    def test_exhausted_redundancy_fails_loudly(self, interrupted_report):
        finale = interrupted_report["finale"]
        assert finale["state"] == "FAILED"
        assert finale["reads_served"] == 0
        assert finale["reads_refused"] > 0
        assert finale["health_down"] is True


class TestShardScenarios:
    """The two sharded-namespace scenarios and their SLOs."""

    @pytest.fixture
    def storm_report(self, reports):
        return reports("shard_death_metadata_storm")

    @pytest.fixture
    def rebalance_report(self, reports):
        return reports("rebalance_interrupted")

    def test_storm_passes_its_slo(self, storm_report):
        assert storm_report["status"] == "pass"
        assert storm_report["violations"] == []

    def test_storm_really_killed_a_shard(self, storm_report):
        counters = storm_report["counters"]
        assert counters["recovery.shard_kills_injected"] == 1
        assert counters["recovery.shard_restarts_injected"] == 1
        assert counters["cluster.shard_failures"] == 1
        # Reads of acked names crossed the dead shard and failed over
        # to the replica peer; the restart resynced the primary table.
        assert counters["naming_shard.failovers"] > 0
        assert counters["naming_shard.resyncs"] >= 1
        assert len(storm_report["shard_windows"]) == 1

    def test_storm_resolves_never_failed(self, storm_report):
        ops = storm_report["ops"]
        assert ops["failed_resolves"] == 0
        assert ops["resolves"] > 0
        # Binds may fail while the shard is down — but only there; an
        # out-of-window failure would have been a violation.
        assert storm_report["final_versions"]["acked_bindings"] > 0

    def test_rebalance_passes_its_slo(self, rebalance_report):
        assert rebalance_report["status"] == "pass"
        assert rebalance_report["violations"] == []

    def test_rebalance_aborted_then_completed(self, rebalance_report):
        counters = rebalance_report["counters"]
        assert counters["naming_shard.migrations_started"] == 2
        assert counters["naming_shard.migrations_aborted"] == 1
        assert counters["naming_shard.migrations_completed"] == 1
        assert counters["cluster.shards_added"] == 1
        # Not one resolve missed at any watermark position.
        assert rebalance_report["ops"]["failed_resolves"] == 0

    def test_window_check_runs_without_a_bus(self):
        # The rebalance cluster has no fault profile (direct calls), so
        # the recovery allowance takes no bus latency.
        scenario = dataclasses.replace(
            by_name("rebalance_interrupted"),
            checks=("bindings_converged", "failures_in_windows"),
        )
        assert run_scenario(scenario)["violations"] == []
        assert recovery_allowance_us(scenario, None) > 150_000


class TestCampaign:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            run_campaign(["no_such_scenario"])

    def test_document_shape(self):
        document = run_campaign(["clean_restarts"])
        assert document["schema_version"] == 1
        assert document["suite"] == "repro-availability"
        assert set(document["scenarios"]) == {"clean_restarts"}

    def test_campaign_dispatches_scrub_scenarios(self):
        document = run_campaign(["scrub_media_errors"])
        assert set(document["scenarios"]) == {"scrub_media_errors"}
        assert document["scenarios"]["scrub_media_errors"]["status"] == "pass"
