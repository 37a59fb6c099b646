"""Every reproduced figure/table must land within a factor-2 band of
every value the paper states numerically — and most much closer. These
are the headline reproduction assertions."""

import pytest

from repro.experiments.registry import all_experiment_ids, run_experiment
from repro.ssb.runner import SsbRunner

_RUNNER = SsbRunner(measured_sf=0.02, seed=5)
_MICRO_IDS = [
    e for e in all_experiment_ids() if e not in ("fig14", "table1")
]


@pytest.fixture(scope="module")
def results():
    out = {}
    for exp_id in _MICRO_IDS:
        out[exp_id] = run_experiment(exp_id)
    out["fig14"] = run_experiment("fig14", runner=_RUNNER)
    out["table1"] = run_experiment("table1", runner=_RUNNER)
    return out


class TestAllComparisonsWithinBand:
    @pytest.mark.parametrize("exp_id", _MICRO_IDS + ["fig14", "table1"])
    def test_within_2x(self, results, exp_id):
        result = results[exp_id]
        assert result.comparisons, f"{exp_id} asserts nothing"
        for c in result.comparisons:
            assert 0.5 <= c.ratio <= 2.0, (
                f"{exp_id}: {c.metric} deviates {c.ratio:.2f}x "
                f"(paper {c.paper}, ours {c.measured})"
            )

    def test_majority_within_40_percent(self, results):
        all_comparisons = [c for r in results.values() for c in r.comparisons]
        close = sum(1 for c in all_comparisons if 0.71 <= c.ratio <= 1.4)
        assert close / len(all_comparisons) > 0.7


class TestKeyShapes:
    def test_fig3_grouped_peak_location(self, results):
        grouped = results["fig3"].series_values("a-grouped/36T")
        assert max(grouped, key=grouped.get) == "4096"

    def test_fig5_cold_far_shape(self, results):
        cold = results["fig5"].series_values("far (1st run)")
        warm = results["fig5"].series_values("far (2nd run)")
        near = results["fig5"].series_values("near")
        for threads in ("4", "8", "18"):
            assert cold[threads] < warm[threads] < near["18"] * 1.01

    def test_fig6_ordering(self, results):
        series = results["fig6"].series
        two_near = max(series["a-pmem/2 Near"].values())
        two_far = max(series["a-pmem/2 Far"].values())
        shared = max(series["a-pmem/1 Near 1 Far"].values())
        assert two_near > two_far > shared

    def test_fig7_counterintuitive_law(self, results):
        grouped_4 = results["fig7"].series_values("a-grouped/4T")
        grouped_36 = results["fig7"].series_values("a-grouped/36T")
        best_4 = int(max(grouped_4, key=grouped_4.get))
        best_36 = int(max(grouped_36, key=grouped_36.get))
        assert best_36 < best_4

    def test_fig8_boomerang_edges(self, results):
        series = results["fig8"].series
        # Bottom edge: 4-6 threads stay hot from 4 KB out to 32 MB.
        row4 = series["b-individual/4T"]
        assert all(row4[s] > 10 for s in ("4096", "65536", str(1 << 25)))
        # Collapsed interior: 24 threads at 64 KB.
        assert series["b-individual/24T"]["65536"] < 7

    def test_fig10_far_write_needs_more_threads(self, results):
        far = results["fig10"].series_values("1 Far")
        near = results["fig10"].series_values("1 Near")
        assert int(max(far, key=far.get)) > int(max(near, key=near.get))

    def test_fig11_interference_monotone(self, results):
        reads = results["fig11"].series_values("read")
        assert reads["1/18"] > reads["4/18"] >= reads["6/18"]

    def test_fig12_hyperthreads_help_random(self, results):
        pmem_18 = results["fig12"].series_values("a-pmem/18T")
        pmem_36 = results["fig12"].series_values("a-pmem/36T")
        assert pmem_36["256"] > pmem_18["256"]

    def test_fig13_write_thread_optimum(self, results):
        s6 = results["fig13"].series_values("a-pmem/6T")
        s36 = results["fig13"].series_values("a-pmem/36T")
        assert max(s6.values()) > max(s36.values())

    def test_fig14_who_wins(self, results):
        series = results["fig14"].series
        for query in series["b-handcrafted/pmem"]:
            assert (
                series["b-handcrafted/pmem"][query]
                > series["b-handcrafted/dram"][query]
            )
            assert series["a-hyrise/pmem"][query] > series["a-hyrise/dram"][query]

    def test_table1_ladder_monotone(self, results):
        for media in ("pmem", "dram"):
            ladder = list(results["table1"].series_values(media).values())
            assert all(a >= b * 0.999 for a, b in zip(ladder, ladder[1:]))

    def test_bestpractices_all_hold(self, results):
        series = results["bestpractices"].series
        assert all(v == 1.0 for v in series["insights hold"].values())
        assert all(v == 1.0 for v in series["practices hold"].values())

    def test_daxmode_ordering(self, results):
        series = results["daxmode"].series
        for threads in ("8", "18"):
            assert series["fsdax"][threads] < series["devdax"][threads]
            assert series["fsdax (prefaulted)"][threads] == pytest.approx(
                series["devdax"][threads]
            )


class TestReportGeneration:
    def test_report_renders(self, results):
        from repro.experiments.report import generate_report

        text = generate_report(results)
        assert "# Experiments" in text
        assert "fig14" in text
        assert "| metric | paper | reproduction | ratio |" in text
        assert "largest deviation" in text
