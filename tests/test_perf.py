"""Tests for the perf subsystem and the ``repro bench`` command."""

import json

import pytest

from repro.errors import DeviceError
from repro.cli import build_parser, main
from repro.perf import (
    BENCH_SCHEMA,
    FULL_DEVICE_SPECS,
    FUSED_SPEEDUP_GATE,
    QUICK_DEVICE_SPECS,
    TimingStats,
    compression_gates_ok,
    render_bench_table,
    resolve_device,
    run_compression_bench,
    time_callable,
    write_bench_json,
)


class TestTimeCallable:
    def test_warmup_and_repeats_counted(self):
        calls = []
        stats, result = time_callable(lambda: calls.append(1) or len(calls), 3, 2)
        assert len(calls) == 5  # 2 warmup + 3 timed
        assert result == 5  # last call's return value
        assert stats.repeats == 3
        assert 0 <= stats.best_s <= stats.mean_s
        assert stats.std_s >= 0

    def test_throughput(self):
        stats = TimingStats(best_s=0.5, mean_s=0.5, std_s=0.0, repeats=1)
        assert stats.throughput(100) == 200.0
        assert stats.to_dict()["best_s"] == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=1, warmup=-1)


class TestResolveDevice:
    def test_specs(self):
        assert resolve_device("bogota").name == "ibm_bogota"
        assert resolve_device("google-3x3").name == "google_3x3"
        assert resolve_device("fluxonium-3").name == "fluxonium_3"

    def test_bad_specs(self):
        with pytest.raises(DeviceError):
            resolve_device("google-3by3")
        with pytest.raises(DeviceError):
            resolve_device("fluxonium-x")
        with pytest.raises(DeviceError):
            resolve_device("not-a-device")

    def test_default_spec_sets_cover_three_families(self):
        for specs in (QUICK_DEVICE_SPECS, FULL_DEVICE_SPECS):
            families = {s.split("-")[0] for s in specs if "-" in s}
            assert {"google", "fluxonium"} <= families
            assert len(specs) >= 3


@pytest.fixture(scope="module")
def payload():
    return run_compression_bench(
        device_specs=("bogota", "fluxonium-3"), repeats=1, warmup=0
    )


@pytest.fixture(scope="module")
def decode_payload():
    return run_compression_bench(
        device_specs=("bogota",), repeats=1, warmup=0, mode="decode"
    )


ALL_CODECS = {"DCT-N", "DCT-W", "int-DCT-W", "delta", "dictionary"}

#: The summary flags behind the compression bench's bit-identity gates.
COMPRESSION_IDENTITY_FLAGS = (
    "all_parity_ok",
    "all_decode_parity_ok",
    "all_roundtrip_ok",
    "all_fused_parity_ok",
    "all_parse_parity_ok",
)


class TestCompressionBench:
    def test_schema_and_coverage(self, payload):
        assert payload["schema"] == BENCH_SCHEMA
        assert len(payload["entries"]) == 2 * 5  # devices x codecs
        variants = {e["variant"] for e in payload["entries"]}
        assert variants == ALL_CODECS
        assert payload["config"]["mode"] == "all"

    def test_per_codec_sections(self, payload):
        """Schema v3: one encode/decode/bitstream roll-up per codec."""
        codecs = payload["codecs"]
        assert set(codecs) == ALL_CODECS
        for name, section in codecs.items():
            assert section["n_entries"] == 2
            assert section["encode"]["parity_ok"]
            assert section["decode"]["parity_ok"]
            assert section["bitstream"]["roundtrip_ok"]
            assert section["encode"]["min_speedup"] > 0
            assert section["decode"]["min_speedup"] > 0
            assert section["mean_compression_ratio_variable"] > 0
            assert section["mean_mse"] >= 0

    def test_entries_have_all_sections(self, payload):
        for entry in payload["entries"]:
            for section in ("encode", "decode"):
                for side in ("scalar", "batched"):
                    timing = entry[section][side]
                    assert timing["best_s"] > 0
                    assert timing["samples_per_s"] > 0
                    assert timing["pulses_per_s"] > 0
                assert entry[section]["speedup"] > 0
            bitstream = entry["bitstream"]
            assert bitstream["serialize"]["best_s"] > 0
            assert bitstream["parse"]["best_s"] > 0
            assert bitstream["n_bytes"] > 0
            assert bitstream["bytes_per_pulse"] > 0
            assert entry["compression_ratio_variable"] > 1
            assert entry["mean_mse"] >= 0

    def test_parity_gates_hold(self, payload):
        summary = payload["summary"]
        assert summary["all_parity_ok"]
        assert summary["all_decode_parity_ok"]
        assert summary["all_roundtrip_ok"]
        for e in payload["entries"]:
            assert e["encode"]["parity"]
            assert e["decode"]["parity"]
            assert e["bitstream"]["roundtrip_ok"]

    def test_fastpath_sections_and_parity(self, payload):
        """Schema v4: fused cold-miss + vectorized-parse measurements."""
        for e in payload["entries"]:
            decode, bitstream = e["decode"], e["bitstream"]
            assert decode["scalar_cold"]["best_s"] > 0
            assert decode["fused"]["best_s"] > 0
            assert decode["fused_speedup"] > 0
            assert decode["fused_parity"]
            assert bitstream["parse_scalar"]["best_s"] > 0
            assert bitstream["parse_speedup"] > 0
            assert bitstream["parse_parity"]
        summary = payload["summary"]
        assert summary["all_fused_parity_ok"]
        assert summary["all_parse_parity_ok"]
        assert summary["fused_speedup_gate"] == 10.0
        assert summary["min_fused_speedup"] > 0
        # The windowed-only gate input excludes full-frame codecs.
        assert (
            summary["min_fused_speedup_windowed"]
            >= summary["min_fused_speedup"]
        )
        for name, section in payload["codecs"].items():
            assert section["decode"]["fused_parity_ok"]
            assert section["bitstream"]["parse_parity_ok"]
            assert section["windowed"] == (name != "DCT-N")

    def test_decode_mode_skips_encode_timing(self, decode_payload):
        assert decode_payload["config"]["mode"] == "decode"
        for entry in decode_payload["entries"]:
            assert entry["encode"] is None
            assert entry["decode"]["parity"]
            assert entry["bitstream"]["roundtrip_ok"]
        summary = decode_payload["summary"]
        assert summary["min_speedup"] is None
        assert summary["all_parity_ok"]  # vacuous: no encode sections
        assert summary["min_decode_speedup"] > 0

    def test_bad_mode_rejected(self):
        with pytest.raises(DeviceError):
            run_compression_bench(device_specs=("bogota",), mode="nope")

    def test_json_serializable_and_written(self, payload, tmp_path):
        path = write_bench_json(payload, tmp_path / "bench.json")
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == BENCH_SCHEMA
        assert loaded["summary"]["n_entries"] == len(payload["entries"])

    def test_render_table(self, payload):
        text = render_bench_table(payload)
        assert "ibm_bogota" in text
        assert "fluxonium_3" in text
        assert "parity ok" in text

    def test_render_table_decode_mode(self, decode_payload):
        text = render_bench_table(decode_payload)
        assert "mode=decode" in text
        assert "parity ok" in text


def _compression_summary(min_fused_windowed=12.0, **flags):
    summary = {flag: True for flag in COMPRESSION_IDENTITY_FLAGS}
    summary.update(flags)
    summary["min_fused_speedup_windowed"] = min_fused_windowed
    return {"summary": summary}


class TestCompressionGates:
    """Gate evaluation on injected summaries: no timing involved."""

    def test_all_gates_hold(self):
        assert compression_gates_ok(_compression_summary()) == (True, [])

    def test_fused_speedup_bound_is_inclusive(self):
        assert FUSED_SPEEDUP_GATE == 10.0
        ok, failures = compression_gates_ok(_compression_summary(10.0))
        assert ok and not failures
        ok, failures = compression_gates_ok(_compression_summary(9.9))
        assert not ok
        assert failures == [
            "fused cold-miss decode is under the 10x gate on a windowed "
            "codec (min 9.9x)"
        ]

    def test_no_windowed_entries_means_no_speed_gate(self):
        assert compression_gates_ok(_compression_summary(None))[0]

    @pytest.mark.parametrize("flag", COMPRESSION_IDENTITY_FLAGS)
    def test_any_parity_flag_false_fails(self, flag):
        ok, failures = compression_gates_ok(_compression_summary(**{flag: False}))
        assert not ok
        assert len(failures) == 1


class TestCliBench:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["bench", "--quick"])
        assert args.quick and args.devices is None and args.output is None
        assert not args.decode

    def test_parser_decode_flag(self):
        assert build_parser().parse_args(["bench", "--decode"]).decode

    def test_bench_decode_command(self, tmp_path, capsys, bench_gates):
        out = tmp_path / "bench_decode.json"
        code = main(
            [
                "bench",
                "--decode",
                "--devices",
                "fluxonium-3",
                "--repeats",
                "1",
                "--warmup",
                "0",
                "--output",
                str(out),
            ]
        )
        assert code == bench_gates.exit_code
        payload = json.loads(out.read_text())
        assert payload == bench_gates.payload
        assert payload["config"]["mode"] == "decode"
        assert bench_gates.identity_ok
        assert all(e["encode"] is None for e in payload["entries"])

    def test_bench_command_writes_json(self, tmp_path, capsys, bench_gates):
        out = tmp_path / "BENCH_compression.json"
        code = main(
            [
                "bench",
                "--devices",
                "bogota",
                "--repeats",
                "1",
                "--warmup",
                "0",
                "--output",
                str(out),
            ]
        )
        assert code == bench_gates.exit_code
        assert out.exists()
        stdout = capsys.readouterr().out
        assert "scalar vs batched" in stdout
        payload = json.loads(out.read_text())
        assert bench_gates.identity_ok
        assert {e["variant"] for e in payload["entries"]} == ALL_CODECS

    def test_bench_variants_option(self, tmp_path, capsys, bench_gates):
        out = tmp_path / "bench_delta.json"
        code = main(
            [
                "bench",
                "--devices",
                "fluxonium-3",
                "--codecs",
                "delta",
                "--repeats",
                "1",
                "--warmup",
                "0",
                "--output",
                str(out),
            ]
        )
        assert code == bench_gates.exit_code
        payload = json.loads(out.read_text())
        assert {e["variant"] for e in payload["entries"]} == {"delta"}
        assert bench_gates.identity_ok

    def test_bench_unknown_variant_rejected(self, capsys):
        assert main(["bench", "--codecs", "DCT-Z"]) == 2
        assert "registered" in capsys.readouterr().out


@pytest.fixture(scope="module")
def serving_payload():
    from repro.perf import run_serving_bench

    return run_serving_bench(
        device_specs=("bogota",),
        shard_counts=(1, 2),
        cache_fractions=(0.5, 1.0),
        n_requests=128,
        repeats=1,
        warmup=0,
    )


class TestServingBench:
    def test_schema_and_coverage(self, serving_payload):
        from repro.perf import SERVING_BENCH_SCHEMA

        assert serving_payload["schema"] == SERVING_BENCH_SCHEMA
        # devices x shard counts x cache fractions
        assert len(serving_payload["entries"]) == 1 * 2 * 2
        assert {e["n_shards"] for e in serving_payload["entries"]} == {1, 2}

    def test_identity_gate_holds(self, serving_payload):
        assert serving_payload["summary"]["all_identity_ok"]
        for entry in serving_payload["entries"]:
            assert entry["identity_ok"]

    def test_throughput_fields_positive(self, serving_payload):
        for entry in serving_payload["entries"]:
            for field in (
                "naive_pulses_per_s",
                "cold_pulses_per_s",
                "warm_pulses_per_s",
                "warm_speedup_vs_naive",
            ):
                assert entry[field] > 0
            assert 0.0 <= entry["warm_hit_rate"] <= 1.0
            assert entry["cache_size"] >= 1
            assert entry["store_bytes"] > 0

    def test_record_memory_measured(self, serving_payload):
        """Schema v2: the slots-era per-record object footprint."""
        for entry in serving_payload["entries"]:
            assert entry["record_bytes_per_pulse"] > 0
        summary = serving_payload["summary"]
        assert summary["record_bytes_per_pulse_mean"] > 0

    def test_full_cache_warm_pass_is_all_hits_and_fast(self, serving_payload):
        full = [
            e
            for e in serving_payload["entries"]
            if e["cache_size"] >= e["n_pulses"]
        ]
        assert full
        for entry in full:
            assert entry["warm_hit_rate"] == 1.0
        summary = serving_payload["summary"]
        assert summary["warm_speedup_full_cache_min"] >= summary["warm_speedup_gate"]
        assert summary["warm_speedup_gate_ok"]

    def test_json_round_trip_and_table(self, serving_payload, tmp_path):
        from repro.perf import (
            SERVING_BENCH_SCHEMA,
            render_serving_table,
            write_bench_json,
        )

        path = write_bench_json(serving_payload, tmp_path / "serving.json")
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == SERVING_BENCH_SCHEMA
        text = render_serving_table(serving_payload)
        assert "ibm_bogota" in text
        assert "identity ok" in text

    def test_validation(self):
        from repro.perf import run_serving_bench

        with pytest.raises(DeviceError):
            run_serving_bench(device_specs=())
        with pytest.raises(DeviceError):
            run_serving_bench(device_specs=("bogota",), shard_counts=(0,))
        with pytest.raises(DeviceError):
            run_serving_bench(device_specs=("bogota",), cache_fractions=(0.0,))
        with pytest.raises(DeviceError):
            run_serving_bench(device_specs=("bogota",), n_requests=0)


class TestCliServingBench:
    def test_parser_flag(self):
        args = build_parser().parse_args(["bench", "--serving", "--quick"])
        assert args.serving and args.quick
        assert args.seed == 7

    def test_serving_rejects_decode_profile(self, capsys):
        assert main(["bench", "--serving", "--decode"]) == 2
        assert "different bench profiles" in capsys.readouterr().out

    def test_serving_variants_must_name_one_registered_codec(self, capsys):
        assert main(["bench", "--serving", "--codecs", "delta,DCT-W"]) == 2
        assert "one codec" in capsys.readouterr().out
        assert main(["bench", "--serving", "--codecs", "nope"]) == 2
        assert "registered" in capsys.readouterr().out

    def test_serving_variant_wired_through(self, tmp_path, capsys, bench_gates):
        out = tmp_path / "serving_delta.json"
        code = main(
            [
                "bench",
                "--serving",
                "--quick",
                "--devices",
                "bogota",
                "--codecs",
                "delta",
                "--repeats",
                "1",
                "--warmup",
                "0",
                "--output",
                str(out),
            ]
        )
        assert code == bench_gates.exit_code
        payload = json.loads(out.read_text())
        assert payload["config"]["variant"] == "delta"
        assert all(e["variant"] == "delta" for e in payload["entries"])
        assert bench_gates.identity_ok

    def test_bench_serving_command_writes_json(self, tmp_path, capsys, bench_gates):
        out = tmp_path / "BENCH_serving.json"
        code = main(
            [
                "bench",
                "--serving",
                "--quick",
                "--devices",
                "bogota",
                "--repeats",
                "1",
                "--warmup",
                "0",
                "--output",
                str(out),
            ]
        )
        assert code == bench_gates.exit_code
        stdout = capsys.readouterr().out
        assert "Pulse serving" in stdout
        payload = json.loads(out.read_text())
        assert bench_gates.identity_ok
        assert payload["config"]["n_requests"] == 512  # the quick profile
