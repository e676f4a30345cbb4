"""Static analysis of task images: the verifier gating the loader.

TyTAN promises that admitted tasks stay inside their EA-MPU regions
and that trusted execution is bounded; this package proves as much of
that as possible *before* admission:

* :mod:`repro.analysis.cfg` - decoding (linear sweep + recursive
  descent), basic blocks, per-function CFGs, dominators, natural loops;
* :mod:`repro.analysis.passes` - the pass pipeline: decode soundness,
  privilege policy, MPU safety, stack-depth bound;
* :mod:`repro.analysis.wcet` - static worst-case execution time via
  longest path over the reducible CFG with loop-bound annotations;
* :mod:`repro.analysis.summary` - per-block memory-access summaries
  (which operands fold to constant addresses - the static mirror of the
  JIT's hoisted EA-MPU windows in compiled blocks and traces);
* :mod:`repro.analysis.verifier` - policy, report, and the
  :func:`verify_image` driver;
* :mod:`repro.analysis.corpus` - known-bad fixtures and the shipped
  clean corpus backing the CI regression gate;
* :mod:`repro.analysis.bench` - static-vs-dynamic WCET soundness
  experiments (``repro.tools.bench --wcet``).

Quickstart::

    from repro.analysis import VerifyPolicy, verify_image

    report = verify_image(image, VerifyPolicy())
    if not report.ok:
        for finding in report.findings:
            print(finding.render())
"""

from repro.analysis.cfg import CodeModel, build_functions
from repro.analysis.passes import DEFAULT_PASSES, Finding
from repro.analysis.summary import AccessRecord, access_summary, summarize_image
from repro.analysis.verifier import Report, VerifyPolicy, verify_image
from repro.analysis.wcet import WcetResult, compute_wcet

__all__ = [
    "AccessRecord",
    "CodeModel",
    "DEFAULT_PASSES",
    "Finding",
    "Report",
    "VerifyPolicy",
    "WcetResult",
    "access_summary",
    "build_functions",
    "compute_wcet",
    "summarize_image",
]
