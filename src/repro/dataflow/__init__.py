"""Maxeler-style streaming dataflow substrate: streams, kernels, engine, manager."""

from .engine import Engine, RunResult
from .interval import exact_completion_period, mean_completion_interval
from .kernel import Kernel, KernelStats
from .leap import LeapController, LeapReport, batch_reference_outputs
from .links import MAXRING, PCIE_GEN2_X8, LinkSpec, required_bandwidth_mbps
from .manager import (
    DEFAULT_STREAM_CAPACITY,
    LinkCrossing,
    Pipeline,
    StreamingRun,
    TimingRun,
    build_pipeline,
    simulate,
    timing_run,
)
from .stream import Stream, StreamStats
from .trace import (
    ImageCompletion,
    KernelSpan,
    RejectSpan,
    StreamEvent,
    Tracer,
    load_chrome_trace,
)
from .tracing import KernelWindow, PipelineTrace, analyze_run, analyze_trace, render_waterfall
from .verify import (
    Diagnostic,
    VerifyReport,
    check_skip_high_water,
    skip_formula_bound,
    solve_skip_capacities,
    verify,
    verify_graph,
    verify_pipeline,
)
from .window import (
    ScanWindow,
    depth_first_buffer_elements,
    skip_buffer_elements,
    width_first_buffer_elements,
)

__all__ = [
    "Engine",
    "RunResult",
    "Kernel",
    "KernelStats",
    "LeapController",
    "LeapReport",
    "batch_reference_outputs",
    "exact_completion_period",
    "mean_completion_interval",
    "MAXRING",
    "PCIE_GEN2_X8",
    "LinkSpec",
    "required_bandwidth_mbps",
    "DEFAULT_STREAM_CAPACITY",
    "LinkCrossing",
    "Pipeline",
    "StreamingRun",
    "build_pipeline",
    "simulate",
    "timing_run",
    "TimingRun",
    "Diagnostic",
    "VerifyReport",
    "check_skip_high_water",
    "skip_formula_bound",
    "solve_skip_capacities",
    "verify",
    "verify_graph",
    "verify_pipeline",
    "KernelWindow",
    "PipelineTrace",
    "analyze_run",
    "analyze_trace",
    "render_waterfall",
    "Stream",
    "StreamStats",
    "Tracer",
    "KernelSpan",
    "StreamEvent",
    "RejectSpan",
    "ImageCompletion",
    "load_chrome_trace",
    "ScanWindow",
    "depth_first_buffer_elements",
    "skip_buffer_elements",
    "width_first_buffer_elements",
]
