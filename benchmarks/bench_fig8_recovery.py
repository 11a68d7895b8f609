"""Fig. 8 — the headline result: filtering-and-ranking recovery rates.

Paper claims reproduced here, over all five benchmarks and all 741
2-bit error patterns:

- the overall arithmetic-mean recovery rate is ~1/3 (paper: 0.3403).
  The synthetic binaries and the frozen H-matrix differ from the
  paper's exact artifacts, so the reproduction's own mean is pinned
  exactly instead, one golden value per scale (the rates are exact
  probabilities, so any change to recovery semantics moves it);
- patterns confined to the opcode/funct/fmt decode fields recover far
  better than operand-field patterns, with best cases near certainty
  (paper: up to 99%);
- patterns in the low-order operand bits bottom out around the
  tie-break plateau (paper: ~15%).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit
from repro.analysis.experiments import run_fig8
from repro.analysis.metrics import BitRegion

#: The overall mean per scale: 25 instructions of 2,048-word images
#: (default), and 100 of 4,096 (``REPRO_FULL_SWEEP=1``); seed 2016.
GOLDEN_MEAN = {False: 0.3282950967161501, True: 0.2945341322644969}


def test_fig8_filter_and_rank_recovery(benchmark, code, images, scale):
    result = benchmark.pedantic(
        run_fig8,
        args=(code, images),
        kwargs={"num_instructions": scale.instructions},
        rounds=1,
        iterations=1,
    )
    emit(
        "Fig. 8 | filtering-and-ranking heuristic recovery "
        f"({scale.instructions} instructions/benchmark, 741 patterns)",
        result.render(),
    )

    golden = GOLDEN_MEAN[scale.full]
    assert result.overall_mean == pytest.approx(golden, rel=0, abs=1e-12), (
        f"headline mean {result.overall_mean!r} is not the golden {golden!r}"
    )
    regions = result.region_summary()
    assert regions[BitRegion.DECODE_FIELDS] > 3 * regions[BitRegion.OPERAND_FIELDS]
    curve = result.mean_curve()
    assert max(curve) >= 0.9  # near-certain recovery exists
    # Low-order-bit plateau: the last patterns (both errors in the low
    # operand bits) sit far below the decode-field region.
    tail = curve[600:]
    assert sum(tail) / len(tail) < 0.3
    # Every benchmark individually lands in a sane band.
    for sweep in result.sweeps:
        assert 0.2 <= sweep.mean_success_rate <= 0.5, sweep.benchmark
