"""Integration tests: every paper experiment runs and its shape holds.

These use small scales so the whole module stays in CI-friendly time;
the assertions target the scale-invariant *shape* claims of each figure
(orderings, crossovers, monotone trends), not absolute numbers.
"""

import math

import pytest

from repro.experiments import ablation, fig2, fig3, fig8, fig9, fig10, fig11, fig12, fig13, fig14, fig15, table1, table2


def by(rows, **criteria):
    matched = [
        row
        for row in rows
        if all(row.get(key) == value for key, value in criteria.items())
    ]
    assert matched, "no row matching %r" % (criteria,)
    return matched


class TestFig2:
    def test_ordering(self):
        result = fig2.run(scale=0.01)
        rates = {row["system"]: row["packet_rate_mpps"] for row in result.rows}
        assert rates["UnivMon"] < rates["Count Sketch"] <= rates["Count-Min"]
        assert rates["Count-Min"] < rates["OVS-DPDK"]
        assert rates["UnivMon"] < 3.0  # paper: < 2 Mpps
        assert 18 < rates["OVS-DPDK"] < 26  # paper: ~22


class TestFig3:
    def test_hashtable_collapses_with_flows(self):
        result = fig3.run_fig3a(scale=0.0005)
        hashtable = by(result.rows, system="Hashtable")
        assert hashtable[0]["packet_rate_mpps"] > hashtable[-1]["packet_rate_mpps"]
        assert hashtable[-1]["packet_rate_mpps"] < 10.0  # paper: <10 past 20M

    def test_sketches_flat(self):
        result = fig3.run_fig3a(scale=0.0005)
        univmon = by(result.rows, system="UnivMon (5%)")
        rates = [row["packet_rate_mpps"] for row in univmon]
        assert max(rates) < 2 * min(rates)

    def test_elastic_errors_grow(self):
        result = fig3.run_fig3b(scale=0.0005)
        entropy = [row["entropy_error_pct"] for row in result.rows]
        distinct = [row["distinct_error_pct"] for row in result.rows]
        assert entropy[-1] > entropy[0]
        assert distinct[-1] > 100  # the >100% overflow claim
        assert result.rows[-1]["light_saturated"]


class TestTables:
    def test_table1_nitro_fastest_and_fully_checked(self):
        result = table1.run(scale=0.01)
        rates = {row["solution"]: row["ovs_packet_rate_mpps"] for row in result.rows}
        assert rates["NitroSketch"] == max(rates.values())
        nitro_row = by(result.rows, solution="NitroSketch")[0]
        assert nitro_row["robustness"] == "yes" and nitro_row["generality"] == "yes"

    def test_table2_hashing_dominates(self):
        result = table2.run(scale=0.01)
        shares = {row["function"]: row["cpu_share_pct"] for row in result.rows}
        hash_share = shares["xxhash32 (hash computations)"]
        assert hash_share == max(shares.values())
        assert 25 < hash_share < 65  # paper: 37.3%
        assert abs(sum(shares.values()) - 100) < 1.0


class TestFig8:
    def test_aio_nitro_restores_line_rate(self):
        result = fig8.run_fig8a(scale=0.01)
        for sketch in ("UnivMon", "Count-Min", "Count Sketch", "K-ary"):
            vanilla = by(result.rows, sketch=sketch, variant="vanilla")[0]
            nitro = by(result.rows, sketch=sketch, variant="nitrosketch")[0]
            assert nitro["throughput_gbps"] == pytest.approx(40.0, rel=0.02)
            assert vanilla["throughput_gbps"] < nitro["throughput_gbps"]

    def test_separate_thread_not_bottleneck(self):
        result = fig8.run_fig8b(scale=0.01)
        for platform in ("ovs-dpdk", "vpp", "bess"):
            bare = by(result.rows, platform=platform, sketch="(switch only)")[0]
            for sketch in ("Count-Min", "Count Sketch", "K-ary"):
                row = by(result.rows, platform=platform, sketch=sketch)[0]
                assert row["packet_rate_mpps"] > 0.85 * bare["packet_rate_mpps"]

    def test_datacenter_line_rate_everywhere(self):
        result = fig8.run_fig8c(scale=0.01)
        for row in result.rows:
            assert row["throughput_gbps"] == pytest.approx(40.0, rel=0.02)


class TestFig9:
    def test_throughput_rises_with_memory(self):
        result = fig9.run_fig9a(scale=0.01)
        for target in (3.0, 5.0):
            series = by(result.rows, error_target_pct=target)
            rates = [row["packet_rate_mpps"] for row in series]
            assert rates[-1] > rates[0]
        # Tighter target is slower at equal memory.
        r3 = by(result.rows, error_target_pct=3.0, memory_mb=8.0)[0]
        r5 = by(result.rows, error_target_pct=5.0, memory_mb=8.0)[0]
        assert r3["packet_rate_mpps"] < r5["packet_rate_mpps"]

    def test_ablation_cumulative_gains(self):
        result = fig9.run_fig9b(scale=0.01)
        capacities = [row["capacity_mpps"] for row in result.rows]
        assert all(b >= a * 0.95 for a, b in zip(capacities, capacities[1:]))
        assert result.rows[-1]["throughput_gbps"] == pytest.approx(40.0, rel=0.02)
        assert capacities[-1] > 3 * capacities[0]


class TestFig10:
    def test_aio_cpu_shares(self):
        result = fig10.run_fig10a(scale=0.01)
        for sketch in ("UnivMon", "Count-Min"):
            vanilla = by(result.rows, sketch=sketch, variant="vanilla")[0]
            nitro = by(result.rows, sketch=sketch, variant="nitrosketch-AIO")[0]
            assert nitro["sketch_cpu_pct"] < 20.0  # paper: < 20%
            assert nitro["sketch_cpu_pct"] < vanilla["sketch_cpu_pct"]

    def test_separate_thread_idle_sketch_core(self):
        result = fig10.run_fig10b(scale=0.01)
        for row in result.rows:
            assert row["switch_core_pct"] > 90.0
            if row["sketch"] != "UnivMon":
                assert row["nitrosketch_core_pct"] < 50.0  # paper: < 50%


class TestFig11:
    def test_errors_decay_and_order(self):
        result = fig11.run_fig11a(scale=0.04)
        p01 = by(result.rows, variant="nitro p=0.1")
        errors = [row["hh_error_pct"] for row in p01]
        assert errors[-1] < errors[0]  # converging
        first_epoch = result.rows[0]["epoch_packets"]
        vanilla = by(result.rows, epoch_packets=first_epoch, variant="vanilla")[0]
        nitro_01 = by(result.rows, epoch_packets=first_epoch, variant="nitro p=0.1")[0]
        nitro_001 = by(result.rows, epoch_packets=first_epoch, variant="nitro p=0.01")[0]
        assert vanilla["hh_error_pct"] < nitro_01["hh_error_pct"] < nitro_001["hh_error_pct"]

    def test_alwayscorrect_throughput_step(self):
        result = fig11.run_fig11c(scale=0.05)
        for monitor in ("AC-NitroSketch(Count-Sketch)", "AC-NitroSketch(UnivMon)"):
            series = by(result.rows, monitor=monitor)
            assert not series[0]["converged"]
            assert series[-1]["converged"]
            assert series[-1]["throughput_gbps"] > series[0]["throughput_gbps"]


class TestFig12:
    def test_hh_errors_decay(self):
        result = fig12.run_fig12a(scale=0.04)
        series = by(result.rows, variant="nitro p=0.1")
        errors = [row["cs_hh_error_pct"] for row in series]
        assert errors[-1] < errors[0]

    def test_convergence_theory_monotone(self):
        result = fig12.run_fig12c(scale=0.2)
        for source in ("paper CAIDA anchors", "measured (synthetic CAIDA)"):
            one_pct = by(result.rows, l2_growth_source=source, error_target_pct=1.0)
            packets = [row["convergence_packets"] for row in one_pct]
            assert packets == sorted(packets, reverse=True)  # more sampling = faster
            five_pct = by(result.rows, l2_growth_source=source, error_target_pct=5.0)
            assert five_pct[0]["convergence_packets"] < one_pct[0]["convergence_packets"]


class TestFig13:
    def test_nitro_beats_sketchvisor(self):
        result = fig13.run_fig13a(scale=0.02)
        rates = {row["system"]: row["packet_rate_mpps"] for row in result.rows}
        assert rates["NitroSketch(UnivMon)"] > 2 * rates["SketchVisor(100%)"]
        assert rates["SketchVisor(20%)"] < rates["SketchVisor(100%)"]

    def test_netflow_memory_scales(self):
        result = fig13.run_fig13b(scale=0.02)
        projected = {row["system"]: row["projected_caida_hour_mb"] for row in result.rows}
        assert projected["NetFlow (0.01)"] > projected["NitroSketch (UnivMon)"]


@pytest.fixture(scope="module")
def fig14_result():
    """One Figure-14 run shared by both of its shape checks (read only)."""
    return fig14.run(scale=0.01)


class TestFig14:
    def test_sketchvisor_error_grows_with_fast_fraction(self, fig14_result):
        result = fig14_result
        biggest = max(row["epoch_packets"] for row in result.rows)
        for trace in ("CAIDA", "DDoS"):
            sv20 = by(result.rows, trace=trace, epoch_packets=biggest, system="SketchVisor(20%)")[0]
            sv100 = by(result.rows, trace=trace, epoch_packets=biggest, system="SketchVisor(100%)")[0]
            assert sv100["hh_error_pct"] > sv20["hh_error_pct"]

    def test_sketchvisor_accurate_on_dc(self, fig14_result):
        result = fig14_result
        biggest = max(row["epoch_packets"] for row in result.rows)
        dc = by(result.rows, trace="DC", epoch_packets=biggest, system="SketchVisor(100%)")[0]
        assert dc["hh_error_pct"] < 5.0


class TestFig15:
    def test_recall_ordering(self):
        result = fig15.run(scale=0.02)
        biggest = max(row["epoch_packets"] for row in result.rows)
        for trace in ("CAIDA", "DDoS", "DC"):
            nitro = by(result.rows, trace=trace, epoch_packets=biggest, system="NitroSketch (0.01)")[0]
            nf_high = by(result.rows, trace=trace, epoch_packets=biggest, system="NetFlow (0.01)")[0]
            nf_low = by(result.rows, trace=trace, epoch_packets=biggest, system="NetFlow (0.001)")[0]
            assert nitro["recall_pct"] >= nf_high["recall_pct"] - 1e-9
            assert nf_high["recall_pct"] > nf_low["recall_pct"]


class TestAblation:
    def test_design_ordering(self):
        result = ablation.run(scale=0.05)
        rates = {row["variant"]: row["packet_rate_mpps"] for row in result.rows}
        assert rates["nitro-geometric"] > rates["nitro-bernoulli"]
        assert rates["nitro-geometric"] > rates["uniform-sampling"]
        assert rates["nitro-geometric"] > rates["vanilla"]
        errors = {row["variant"]: row["hh_error_pct"] for row in result.rows}
        # Same memory, same p: uniform packet sampling is less accurate
        # than counter-array sampling (the Appendix-B separation).
        assert errors["uniform-sampling"] > errors["nitro-geometric"]
