import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import yaml

import fognet
from fognet.cli import main
from fognet.dataplane import NetworkState
from fognet.metrics import BYTES_PER_MBPS_MS, MetricsCollector
from fognet.scenario import ParseError, ValidationError, load_scenario, parse_scenario
from fognet.simulation import OUTPUT_FILES, ROW_CHUNK, Simulation, run_scenario, write_rows
from fognet.topology import InvalidTopology, LinkClass, MissingPoP, build_from_config, loads
from helpers import two_cluster_doc

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

F = Fraction

RTT = "cloud_rtt_ms: 20"
FOGS_BLOCK = """fogs:
  fog1:
    udf: true
    pcrf: true
    mlmf: true
    cache: true
    dhcp: true
    cache_capacity: 10
    address_pool: 32"""
POLICY_BLOCK = """policy:
  local_voip: {qos: RealTimeGBR, gbr_mbps: 0.1}
  content_request: {qos: BestEffort}
  external_web: {qos: BestEffort}"""


def scenario_doc(**overrides):
    doc = {
        "duration_ms": 20_000,
        "seed": 5,
        "metrics_tick_ms": 5_000,
        "topology": {"generate": {"clusters": 2, "users_min": 3, "users_max": 4}},
        "workload": {
            "local_voip": {"rate_per_s": 0.8, "demand_mbps": 0.1, "holding_mean_s": 10},
            "content_request": {"rate_per_s": 0.8, "demand_mbps": 2.0, "holding_mean_s": 5},
            "external_web": {"rate_per_s": 0.4, "demand_mbps": 1.0, "holding_mean_s": 8},
            "content": {"catalog_size": 20, "zipf_exponent": 1.0},
        },
    }
    doc.update(overrides)
    return doc


class TestLoadScenario:
    def test_bundled_two_cluster_loads(self):
        config = load_scenario(SCENARIOS / "two_cluster.scn")
        assert len(config.topology.clusters) == 2
        assert config.duration_ms == 60_000
        assert config.fogs["fog1"].cache_capacity == 10

    def test_zero_duration_rejected(self):
        with pytest.raises(ValidationError) as err:
            parse_scenario(scenario_doc(duration_ms=0))
        assert "duration_ms" in str(err.value)

    def test_unknown_operator_reference_names_field(self):
        doc = scenario_doc(
            slices=[{"id": "s1", "operator": "op1", "shares": 1}],
            subscribers={"overrides": [{"user": "u1-1", "operator": "ghost"}]},
        )
        with pytest.raises(ValidationError) as err:
            parse_scenario(doc)
        assert err.value.field == "subscribers.overrides[0].operator"

    def test_unknown_key_strict(self):
        with pytest.raises(ValidationError) as err:
            parse_scenario(scenario_doc(bogus=1))
        assert "bogus" in str(err.value)

    def test_missing_file_is_parse_error(self):
        with pytest.raises(ParseError):
            load_scenario("/nonexistent/path.scn")

    @pytest.mark.parametrize("key", ["udf", "pcrf", "mlmf", "cache", "dhcp", "tcp_opt"])
    def test_fog_flags_must_be_booleans(self, key):
        """A quoted "false" is a string, not false: it is refused, not read
        as true. A YAML boolean is taken as written."""
        fog_id = parse_scenario(scenario_doc()).topology.fogs()[0]
        for value in ("false", "true", 0, 1, None):
            with pytest.raises(ValidationError) as err:
                parse_scenario(scenario_doc(fogs={fog_id: {key: value}}))
            assert err.value.field == f"fogs.{fog_id}.{key}" and "expected true or false" in str(err.value)
        attr = "tcp_opt_in_fog" if key == "tcp_opt" else f"{key}_in_fog"
        for value in (False, True):
            config = parse_scenario(scenario_doc(fogs={fog_id: {key: value}}))
            assert getattr(config.fogs[fog_id].profile, attr) is value
            assert config.to_doc()["fogs"][fog_id][key] is value

    def test_resolved_config_round_trips(self):
        """The run log's resolved configuration (`to_doc`, through YAML),
        parsed again over the same topology, is the same configuration:
        an override's empty class list, which allows no class, stays
        empty rather than dropping out and allowing every class."""
        doc = yaml.safe_load((SCENARIOS / "two_cluster.scn").read_text())
        doc["subscribers"] = {
            "overrides": [
                {"user": "u1", "allowed_classes": []},
                {"user": "u2", "allowed_classes": ["local_voip"], "max_gbr_mbps": 0.5, "operator": "op1"},
            ]
        }
        config = parse_scenario(doc, base_dir=str(SCENARIOS), name="two_cluster")
        resolved = yaml.safe_load(yaml.safe_dump(config.to_doc(), sort_keys=False))
        assert resolved["subscribers"]["overrides"][0] == {"user": "u1", "allowed_classes": []}
        del resolved["topology_source"]
        again = parse_scenario({**resolved, "topology": doc["topology"]}, base_dir=str(SCENARIOS))
        assert again.subscribers == config.subscribers
        assert again.to_doc() == config.to_doc()

    def test_defaults_echoed(self):
        config = parse_scenario(scenario_doc())
        doc = config.to_doc()
        assert doc["cloud_rtt_ms"] == 20
        assert doc["slices"][0]["operator"] == "op1"
        assert doc["workload"]["mobility"]["mobile_fraction"] == 0.0


class TestRunScenario:
    def test_empty_workload_all_counters_zero(self):
        doc = scenario_doc()
        for cls in ("local_voip", "content_request", "external_web"):
            doc["workload"][cls]["rate_per_s"] = 0.0
        record = run_scenario(parse_scenario(doc))
        assert record.requests == 0
        assert record.admitted == 0
        assert record.rejected_total == 0
        assert record.backhaul_bytes == 0

    def test_same_seed_byte_identical_outputs(self, tmp_path):
        for name in ("a", "b"):
            config = load_scenario(SCENARIOS / "two_cluster.scn")
            sim = Simulation(config)
            record = sim.run()
            sim.write_outputs(tmp_path / name, record)
        for fname in OUTPUT_FILES:
            a = (tmp_path / "a" / fname).read_bytes()
            b = (tmp_path / "b" / fname).read_bytes()
            assert a == b, fname

    def test_rows_written_in_chunks_are_the_joined_rows(self, tmp_path):
        """`write_rows` writes the same bytes as the whole text joined at
        once, on each side of a chunk boundary, from a list or a generator
        of the rows; no rows write nothing."""
        for count in (1, ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1, 2 * ROW_CHUNK + 5):
            rows = [f"row\t{i}" for i in range(count)]
            for kind, given in (("list", rows), ("generator", (row for row in rows))):
                path = tmp_path / f"{count}-{kind}.tsv"
                with open(path, "w") as fh:
                    write_rows(fh, given)
                assert path.read_text() == "\n".join(rows) + "\n", (count, kind)
        for kind, given in (("list", []), ("generator", iter(()))):
            path = tmp_path / f"0-{kind}.tsv"
            with open(path, "w") as fh:
                write_rows(fh, given)
            assert path.read_text() == "", kind

    def test_different_seed_differs(self):
        r1 = run_scenario(parse_scenario(scenario_doc(seed=5)))
        r2 = run_scenario(parse_scenario(scenario_doc(seed=6)))
        assert (r1.requests, r1.admitted, str(r1.backhaul_bytes)) != (
            r2.requests,
            r2.admitted,
            str(r2.backhaul_bytes),
        )

    def test_cache_lowers_backhaul_bytes(self):
        base = scenario_doc(seed=9, duration_ms=40_000)
        on = parse_scenario({**base, "fogs": {"fog1": {"cache": True, "cache_capacity": 10}}})
        off = parse_scenario({**base, "fogs": {"fog1": {"cache": False}}})
        rec_on = run_scenario(on)
        rec_off = run_scenario(off)
        assert rec_on.cache_lookups > 0 and rec_on.cache_hits > 0
        assert rec_off.cache_lookups == 0
        assert rec_on.backhaul_bytes < rec_off.backhaul_bytes

    def test_accounting_closure_exact(self):
        config = parse_scenario(scenario_doc(seed=3))
        sim = Simulation(config)
        backhaul_ids = [lid for lid, link in config.topology.links.items() if link.link_class == LinkClass.BACKHAUL]

        def backhaul_rates():
            return {lid: Fraction(sim.net.load_units(lid), sim.net.unit) for lid in backhaul_ids}

        # (time, backhaul link rates) after every rate change, from t = 0
        history = [(0, backhaul_rates())]
        after_change = sim._after_change

        def recording_after_change(now_ms):
            after_change(now_ms)
            history.append((now_ms, backhaul_rates()))

        sim._after_change = recording_after_change
        record = sim.run()
        # recompute the integral from the allocation history trace
        total = F(0)
        for (t0, rates), (t1, _) in zip(history, history[1:] + [(config.duration_ms, None)]):
            total += sum(rates.values(), F(0)) * (t1 - t0) * BYTES_PER_MBPS_MS
        assert total == record.backhaul_bytes

    def test_requests_equal_admitted_plus_rejected(self):
        doc = scenario_doc(seed=12, duration_ms=30_000)
        doc["subscribers"] = {"overrides": [{"user": "u1-1", "allowed_classes": ["local_voip"]}]}
        record = run_scenario(parse_scenario(doc))
        assert record.requests == record.admitted + record.rejected_total
        assert record.rejected.get("PolicyDenied", 0) >= 0

    def test_isolation_scenario_counts(self):
        config = load_scenario(SCENARIOS / "isolation.scn")
        sim = Simulation(config)
        record = sim.run()
        assert record.rejected.get("FogIsolated", 0) > 0 or record.terminated.get("FogIsolated", 0) > 0
        rows = [r for r in sim.cloud.connectivity_rows()]
        assert any("Isolated" in r for r in rows) and any("Connected" in r for r in rows)


class TestBackhaulMeter:
    def test_every_reading_equals_a_fraction_integral(self):
        """`MetricsCollector` integrates the backhaul rate with int sums
        only: a whole-unit total, and per denominator a bucket of a
        Fraction rate's `numerator x ms`, folded when `backhaul_bytes` is
        read. Fed int and Fraction rates (with many distinct denominators,
        and some whole Fractions), every reading, between steps and at the
        end, equals the plain Fraction integral."""
        net = NetworkState(build_from_config(two_cluster_doc()), [])
        metrics = MetricsCollector(net)
        rng = random.Random(28)
        rate = 0
        net.load_units = lambda *link_ids: rate
        expected, now, denominators = F(0), 0, set()
        for step in range(400):
            dt = rng.choice([0, rng.randint(1, 5_000)])
            expected += rate * dt
            now += dt
            metrics.advance(now)
            r = rng.random()
            if r < 0.3:
                rate = rng.randint(0, 10**6)
            elif r < 0.4:
                rate = F(rng.randint(0, 10**6))
            else:
                rate = F(rng.randint(1, 10**9), rng.randint(1, 10**6))
            denominators.add(F(rate).denominator)
            metrics.set_backhaul_rate(net)
            if rng.random() < 0.2:
                assert metrics.backhaul_bytes == expected * BYTES_PER_MBPS_MS / net.unit, step
        expected += rate * 777
        metrics.advance(now + 777)
        assert metrics.backhaul_bytes == expected * BYTES_PER_MBPS_MS / net.unit
        assert metrics.backhaul_bytes == expected * BYTES_PER_MBPS_MS / net.unit  # a second read folds nothing
        assert len(denominators) > 200


class TestMobilityScenario:
    def test_handovers_reroute_flows(self):
        doc = scenario_doc(seed=21, duration_ms=60_000)
        doc["workload"]["mobility"] = {"mobile_fraction": 1.0, "relocation_rate_per_s": 0.05}
        doc["workload"]["local_voip"] = {"rate_per_s": 1.0, "demand_mbps": 0.1, "holding_mean_s": 30}
        config = parse_scenario(doc)
        sim = Simulation(config)
        sim.run()
        reroutes = [r for r in sim.decision_rows[1:] if r.endswith("\t1")]
        assert reroutes, "expected at least one handover re-decision"


class TestCli:
    def test_validate_bundled_ok(self, capsys):
        assert main(["validate", str(SCENARIOS / "two_cluster.scn")]) == 0
        assert "ok" in capsys.readouterr().out

    def test_run_missing_file_exit_1(self, capsys):
        code = main(["run", "/no/such/file.scn"])
        assert code == 1
        assert "/no/such/file.scn" in capsys.readouterr().err

    def test_unknown_flag_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["run", "--frobnicate", "x"])
        assert err.value.code == 2

    def test_run_and_report_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            ["run", str(SCENARIOS / "two_cluster.scn"), "--out", str(out), "--duration", "20000"]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        report = capsys.readouterr().out
        assert "MISMATCH" not in report

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "old, new, field",
        [
            ("shares: 1", 'shares: "1/0"', "slices[0].shares"),
            ("shares: 1", 'shares: "1/x"', "slices[0].shares"),
            ("shares: 1", 'shares: "abc"', "slices[0].shares"),
            ("demand_mbps: 0.1", 'demand_mbps: "3/0"', "workload.local_voip.demand_mbps"),
            ("demand_mbps: 0.1", 'demand_mbps: "abc"', "workload.local_voip.demand_mbps"),
            ("demand_mbps: 0.1", "demand_mbps: .inf", "workload.local_voip.demand_mbps"),
            ("cloud_rtt_ms: 20", 'cloud_rtt_ms: 20\nwlan_control_overhead_mbps: "x"', "wlan_control_overhead_mbps"),
        ],
        ids=["shares-1/0", "shares-1/x", "shares-abc", "demand-3/0", "demand-abc", "demand-inf", "overhead-x"],
    )
    def test_malformed_rate_is_one_line_error(self, tmp_path, capsys, command, old, new, field):
        text = (SCENARIOS / "two_cluster.scn").read_text()
        assert text.count(old) == 1
        (tmp_path / "two_cluster.topo.yaml").write_text((SCENARIOS / "two_cluster.topo.yaml").read_text())
        scn = tmp_path / "bad.scn"
        scn.write_text(text.replace(old, new))
        args = [command, str(scn)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
        assert main(args) == 1
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert "Traceback" not in captured.err
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        assert f"{field}: not a rate" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "old, new, detail",
        [
            ("slices:\n  - id: s1\n    operator: op1\n    shares: 1", "slices: 5", "slices: expected a list"),
            ("topology:\n  file: two_cluster.topo.yaml", "topology: {file: two_cluster.topo.yaml", "invalid YAML: "),
            (FOGS_BLOCK, "fogs: 5", "fogs: expected a mapping"),
            (POLICY_BLOCK, "policy: 5", "policy: expected a mapping"),
            (RTT, f"{RTT}\nsubscribers: {{overrides: 5}}", "subscribers.overrides: expected a list"),
            (RTT, f"{RTT}\nsubscribers: {{allowed_classes: 5}}", "subscribers.allowed_classes: expected a list"),
            ("cache: true", 'cache: "false"', "fogs.fog1.cache: expected true or false"),
            (
                "file: two_cluster.topo.yaml",
                "file: two_cluster.topo.yaml\n  link_defaults: 5",
                "topology.link_defaults: expected a mapping",
            ),
            (RTT, f"{RTT}\nfaults: {{backhaul_schedule: 5}}", "faults.backhaul_schedule: expected a list"),
            (
                RTT,
                f"{RTT}\nsubscribers: {{overrides: [{{user: u1, allowed_classes: 5}}]}}",
                "subscribers.overrides[0].allowed_classes: expected a list",
            ),
            (RTT, f"{RTT}\nsubscribers: {{allowed_classes: [[1]]}}", "subscribers.allowed_classes: unknown class [1]"),
            (
                RTT,
                f"{RTT}\nsubscribers: {{overrides: [{{user: u1, operator: [1]}}]}}",
                "subscribers.overrides[0].operator: unknown slice operator [1]",
            ),
            (
                RTT,
                f"{RTT}\nsubscribers: {{overrides: [{{user: u1, allowed_classes: [bogus]}}]}}",
                "subscribers.overrides[0].allowed_classes: unknown class 'bogus'",
            ),
            (
                RTT,
                f"{RTT}\nsubscribers: {{overrides: [{{user: u2}}, {{user: u1}}, {{user: u1, allowed_classes: []}}]}}",
                "subscribers.overrides[2].user: second override for user 'u1'",
            ),
            (
                "demand_mbps: 2.0",
                "demand_mbps: -1",
                "workload.content_request.demand_mbps: must be >= 0",
            ),
            (RTT, f"{RTT}\nsubscribers: {{max_gbr_mbps: -1}}", "subscribers.max_gbr_mbps: must be >= 0"),
            (
                RTT,
                f"{RTT}\nsubscribers: {{overrides: [{{user: u1, max_gbr_mbps: -1/2}}]}}",
                "subscribers.overrides[0].max_gbr_mbps: must be >= 0",
            ),
            (
                "external_web: {qos: BestEffort}",
                "external_web: {qos: BestEffort, gbr_mbps: -1/7}",
                "policy.external_web.gbr_mbps: must be >= 0",
            ),
            ("  - id: s1\n    operator: op1\n", "  - operator: op1\n", "slices[0].id: required"),
            ("  - id: s1\n    operator: op1\n", "  - id: s1\n", "slices[0].operator: required"),
            (
                "topology:\n  file: two_cluster.topo.yaml",
                'topology:\n  generate: {clusters: 2, seed: "x"}',
                "topology.generate.seed: expected a number, got 'x'",
            ),
            ("catalog_size: 50", "catalog_size: 2.5", "workload.content.catalog_size: must be a whole number, got 2.5"),
            ("catalog_size: 50", "catalog_size: 100001", "workload.content.catalog_size: must be <= 100000"),
            (
                "catalog_size: 50",
                "catalog_size: 1000000000000000000000000000000",
                "workload.content.catalog_size: must be <= 100000",
            ),
            ("duration_ms: 60000", "duration_ms: 60000.5", "scenario.duration_ms: must be a whole number, got 60000.5"),
            ("cache_capacity: 10", "cache_capacity: 1.5", "fogs.fog1.cache_capacity: must be a whole number, got 1.5"),
            (
                "topology:\n  file: two_cluster.topo.yaml",
                "topology:\n  generate: {clusters: 2.5}",
                "topology.generate.clusters: must be a whole number, got 2.5",
            ),
        ],
        ids=[
            "slices-not-a-list",
            "yaml-unclosed-mapping",
            "fogs-not-a-mapping",
            "policy-not-a-mapping",
            "overrides-not-a-list",
            "allowed-classes-not-a-list",
            "quoted-flag",
            "link-defaults-not-a-mapping",
            "backhaul-schedule-not-a-list",
            "override-classes-not-a-list",
            "class-not-a-name",
            "operator-not-a-name",
            "override-unknown-class",
            "override-twice",
            "negative-demand",
            "negative-max-gbr",
            "negative-override-max-gbr",
            "negative-policy-gbr",
            "slice-without-id",
            "slice-without-operator",
            "generate-seed-not-a-number",
            "fractional-catalog",
            "catalog-above-bound",
            "catalog-10e30",
            "fractional-duration",
            "fractional-cache-capacity",
            "fractional-clusters",
        ],
    )
    def test_malformed_scenario_is_one_line_error(self, tmp_path, capsys, command, old, new, detail):
        text = (SCENARIOS / "two_cluster.scn").read_text()
        assert text.count(old) == 1
        (tmp_path / "two_cluster.topo.yaml").write_text((SCENARIOS / "two_cluster.topo.yaml").read_text())
        scn = tmp_path / "bad.scn"
        scn.write_text(text.replace(old, new))
        args = [command, str(scn)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
        assert main(args) == 1
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert "Traceback" not in captured.err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {scn}: {detail}"), err
        assert err.count(str(scn)) == 1, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "old, new, raised, detail",
        [
            ("{id: gw, kind: CloudGateway}", "{id: gw, kind: CloudGateway, colour: red}", InvalidTopology, "colour"),
            ("{id: gw, kind: CloudGateway}", "{kind: CloudGateway}", KeyError, "missing key 'id'"),
            ("{id: gw, kind: CloudGateway}", "{id: gw, kind: Blah}", ValueError, "Blah"),
            ("{id: gw, kind: CloudGateway}", "{id: gw, kind: CloudGateway", yaml.YAMLError, "line 2"),
            ("{id: pop, kind: PoP, fog: fog1}", "{id: pop, kind: User, fog: fog1}", MissingPoP, "MissingPoP"),
        ],
        ids=["unknown-key", "node-without-id", "unknown-kind", "yaml-syntax", "fog-without-pop"],
    )
    def test_malformed_topology_file_is_one_line_error(self, tmp_path, capsys, command, old, new, raised, detail):
        text = (SCENARIOS / "two_cluster.topo.yaml").read_text()
        assert text.count(old) == 1
        bad = text.replace(old, new)
        with pytest.raises(raised):  # library callers still get the loader's own error
            loads(bad)
        (tmp_path / "two_cluster.topo.yaml").write_text(bad)
        scn = tmp_path / "bad.scn"
        scn.write_text((SCENARIOS / "two_cluster.scn").read_text())
        args = [command, str(scn)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
        assert main(args) == 1
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert "Traceback" not in captured.err
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        assert "topology.file: two_cluster.topo.yaml: " in err and detail in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("value", [".inf", "-.inf", ".nan"])
    @pytest.mark.parametrize(
        "old, new, field",
        [
            ("duration_ms: 60000", "duration_ms: {}", "duration_ms"),
            ("cache_capacity: 10", "cache_capacity: {}", "fogs.fog1.cache_capacity"),
            ("seed: 42", "seed: {}", "seed"),
            ("rate_per_s: 0.5", "rate_per_s: {}", "workload.local_voip.rate_per_s"),
            (
                "cloud_rtt_ms: 20",
                "cloud_rtt_ms: 20\nfaults:\n  backhaul_random: {{mean_up_s: {}, mean_down_s: 5}}",
                "faults.backhaul_random.mean_up_s",
            ),
        ],
        ids=["duration_ms", "cache_capacity", "seed", "rate_per_s", "mean_up_s"],
    )
    def test_non_finite_number_is_one_line_error(self, tmp_path, command, value, old, new, field):
        # A subprocess with a timeout, so a run that never ends fails the test.
        text = (SCENARIOS / "two_cluster.scn").read_text()
        assert text.count(old) == 1
        (tmp_path / "two_cluster.topo.yaml").write_text((SCENARIOS / "two_cluster.topo.yaml").read_text())
        scn = tmp_path / "bad.scn"
        scn.write_text(text.replace(old, new.format(value)))
        args = [command, str(scn)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
        env = dict(os.environ, PYTHONPATH=str(Path(fognet.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "fognet.cli", *args], capture_output=True, text=True, timeout=30, env=env
        )
        assert proc.returncode == 1
        err = proc.stderr.strip()
        assert "Traceback" not in proc.stderr
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        assert f"{field}: must be finite" in err
        assert not (tmp_path / "out").exists()

    def test_report_missing_dir_exit_1(self, capsys):
        assert main(["report", "/no/such/dir"]) == 1

    def test_gen_topology(self, tmp_path):
        params = tmp_path / "params.yaml"
        params.write_text("clusters: 3\nusers_min: 1\nusers_max: 2\nseed: 4\n")
        out = tmp_path / "topo.yaml"
        assert main(["gen-topology", str(params), "--out", str(out)]) == 0
        from fognet.topology import load_topology, validate

        topo = load_topology(out)
        assert validate(topo) == []
        assert len(topo.clusters) == 3

    def test_run_seed_override_changes_outputs(self, tmp_path):
        outs = []
        for seed in (1, 2):
            out = tmp_path / f"s{seed}"
            assert (
                main(
                    [
                        "run",
                        str(SCENARIOS / "two_cluster.scn"),
                        "--seed",
                        str(seed),
                        "--out",
                        str(out),
                        "--duration",
                        "15000",
                    ]
                )
                == 0
            )
            outs.append((out / "decisions.log").read_bytes())
        assert outs[0] != outs[1]
