"""Evaluation harness: regenerates the paper's figures and tables."""

from .bench import (BENCH_SCHEMA, BenchReport, EngineComparison,
                    bench_workload, compare_engines, run_engine_bench)
from .faultbench import (FAULTBENCH_SCHEMA, FaultComparison, FaultReport,
                         run_fault_bench)
from .overlap import (OVERLAP_SCHEMA, OverlapComparison, OverlapReport,
                      compare_overlap, run_overlap_bench)
from .runner import (BenchmarkResult, CONFIGURATIONS, run_all,
                     run_benchmark)
from .figure4 import (Figure4Row, PAPER_GEOMEANS, PAPER_GEOMEANS_CLAMPED,
                      SERIES, build_figure4, figure4_geomeans, geomean,
                      render_figure4)
from .table1 import (FEATURE_PROGRAMS, TABLE1, Table1Row,
                     demonstrate_cgcm, render_table1)
from .table3 import (Table3Row, build_table3, render_table3,
                     render_table3_comparison)
from .figure2 import (SCHEDULE_WORKLOAD, Schedule, build_schedules,
                      render_figure2)

__all__ = [
    "BENCH_SCHEMA", "BenchReport", "EngineComparison", "bench_workload",
    "compare_engines", "run_engine_bench",
    "OVERLAP_SCHEMA", "OverlapComparison", "OverlapReport",
    "compare_overlap", "run_overlap_bench",
    "FAULTBENCH_SCHEMA", "FaultComparison", "FaultReport",
    "run_fault_bench",
    "BenchmarkResult", "CONFIGURATIONS", "run_all", "run_benchmark",
    "Figure4Row", "PAPER_GEOMEANS", "PAPER_GEOMEANS_CLAMPED", "SERIES",
    "build_figure4", "figure4_geomeans", "geomean", "render_figure4",
    "FEATURE_PROGRAMS", "TABLE1", "Table1Row", "demonstrate_cgcm",
    "render_table1", "Table3Row", "build_table3", "render_table3",
    "render_table3_comparison", "SCHEDULE_WORKLOAD", "Schedule",
    "build_schedules", "render_figure2",
]
