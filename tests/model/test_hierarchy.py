"""Hierarchy assembly and gap-attribution tests."""

import pytest

from repro.errors import ModelError
from repro.machine import DEFAULT_CONFIG, Simulator
from repro.model import analyze_kernel, render_hierarchy, workload_hmean_mflops
from repro.sweep.spec import OPTION_VARIANTS
from repro.workloads import (
    CASE_STUDY_KERNELS, clear_caches, run_kernel, workload,
)


class TestHierarchyInvariants:
    @pytest.mark.parametrize(
        "spec", CASE_STUDY_KERNELS, ids=lambda s: s.name
    )
    def test_bounds_monotone(self, spec, workload_analyses):
        """t_MA <= t_MAC <= t_MACS <= t_p, always."""
        a = workload_analyses[spec.name]
        assert a.ma.cpl <= a.mac.cpl + 1e-9
        assert a.mac.cpl <= a.macs.cpl + 1e-9
        assert a.macs.cpl <= a.t_p_cpl + 1e-9

    @pytest.mark.parametrize(
        "spec", CASE_STUDY_KERNELS, ids=lambda s: s.name
    )
    def test_macs_at_least_components(self, spec, workload_analyses):
        a = workload_analyses[spec.name]
        assert a.macs.cpl >= max(a.macs_f.cpl, a.macs_m.cpl) - 1e-9

    def test_gap_decomposition_sums(self, lfk1_analysis):
        a = lfk1_analysis
        total = (
            a.compiler_gap_cpl()
            + a.schedule_gap_cpl()
            + a.unmodeled_gap_cpl()
        )
        assert total == pytest.approx(a.t_p_cpl - a.ma.cpl)

    def test_percent_explained_ordering(self, lfk1_analysis):
        a = lfk1_analysis
        assert (
            a.percent_explained("ma")
            <= a.percent_explained("mac")
            <= a.percent_explained("macs")
            <= 100.0 + 1e-9
        )


class TestAnalyzeKernelOptions:
    def test_measure_false_skips_simulation(self):
        analysis = analyze_kernel("lfk1", measure=False)
        assert analysis.t_p_cpl is None
        assert analysis.ax is None
        with pytest.raises(ModelError):
            analysis.percent_explained("macs")

    def test_accepts_name_and_number(self):
        by_name = analyze_kernel("lfk12", measure=False)
        by_number = analyze_kernel(12, measure=False)
        assert by_name.spec is by_number.spec

    def test_nonstandard_n_rejected(self):
        with pytest.raises(ModelError):
            analyze_kernel("lfk1", n=555, measure=False)

    def test_standard_n_accepted(self):
        analysis = analyze_kernel("lfk1", n=1001, measure=False)
        assert analysis.spec.number == 1


class TestRunMemo:
    def test_t_p_comes_from_the_run_memo(self, monkeypatch):
        """A kernel already run is not simulated again for ``t_p``;
        only the A- and X-process runs are new, and a repeat runs
        nothing."""
        runs = []
        simulate = Simulator.run

        def counting(self, *args, **kwargs):
            runs.append(self.program)
            return simulate(self, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run", counting)
        spec = workload("lfk7")
        options = OPTION_VARIANTS["reuse"]
        config = DEFAULT_CONFIG.without_refresh()
        clear_caches()
        try:
            run = run_kernel(spec, options, config)
            assert len(runs) == 1
            analysis = analyze_kernel(spec, options=options, config=config)
            assert len(runs) == 3  # t_a and t_x
            assert analysis.t_p_cpl == run.cpl()
            again = analyze_kernel(spec, options=options, config=config)
            assert len(runs) == 3
            assert again.t_p_cpl == run.cpl()
        finally:
            clear_caches()


class TestDiagnostics:
    def test_lfk1_diagnoses_compiler_gap(self, lfk1_analysis):
        notes = " ".join(lfk1_analysis.diagnose())
        assert "extra memory reference" in notes

    def test_lfk8_diagnoses_chime_splits(self, workload_analyses):
        notes = " ".join(workload_analyses["lfk8"].diagnose())
        assert "split chimes" in notes

    def test_lfk2_diagnoses_unmodeled_gap(self, workload_analyses):
        notes = " ".join(workload_analyses["lfk2"].diagnose())
        assert "unmodeled" in notes

    def test_report_renders(self, lfk1_analysis):
        report = lfk1_analysis.report()
        assert "MA" in report and "MACS" in report
        assert "% of actual explained" in report


class TestWorkloadAggregates:
    def test_hmean_levels_ordered(self, workload_analyses):
        analyses = list(workload_analyses.values())
        hmeans = [
            workload_hmean_mflops(analyses, level)
            for level in ("ma", "mac", "macs", "actual")
        ]
        assert hmeans == sorted(hmeans, reverse=True)

    def test_unknown_level_rejected(self, workload_analyses):
        with pytest.raises(ModelError):
            workload_hmean_mflops(
                list(workload_analyses.values()), "bogus"
            )

    def test_render_hierarchy_mentions_all_levels(self):
        text = render_hierarchy()
        for term in ("t_MA", "t_MAC", "t_MACS", "t_p"):
            assert term in text
