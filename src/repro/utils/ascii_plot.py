"""Dependency-free ASCII sparklines and mini-plots.

The CLI and examples run in terminals without plotting stacks; a
sparkline column (`▁▂▃▅▇`) is enough to *see* a recovery trajectory or
a TV-decay curve next to its numbers.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["sparkline", "histogram_bars"]

_TICKS = "▁▂▃▄▅▆▇█"


def sparkline(
    values: Sequence[float],
    *,
    lo: float | None = None,
    hi: float | None = None,
    width: int | None = None,
) -> str:
    """Render values as a unicode sparkline string.

    Constant series render as all-low ticks; NaNs are rejected.
    ``lo``/``hi`` pin the scale (useful to share one scale across rows).
    A series longer than *width* is cut into *width* contiguous buckets
    of near-equal length and each bucket renders its max, so a one-point
    spike still shows.
    """
    vals = [float(v) for v in values]
    if not vals:
        return ""
    if any(v != v for v in vals):
        raise ValueError("sparkline values must not contain NaN")
    if width is not None and len(vals) > width:
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        cuts = [len(vals) * i // width for i in range(width + 1)]
        vals = [max(vals[a:b]) for a, b in zip(cuts, cuts[1:])]
    vmin = min(vals) if lo is None else float(lo)
    vmax = max(vals) if hi is None else float(hi)
    if vmax <= vmin:
        return _TICKS[0] * len(vals)
    span = vmax - vmin
    out = []
    for v in vals:
        frac = (v - vmin) / span
        idx = min(int(frac * len(_TICKS)), len(_TICKS) - 1)
        out.append(_TICKS[idx])
    return "".join(out)


def histogram_bars(
    counts: Sequence[float],
    labels: Sequence[str] | None = None,
    *,
    width: int = 40,
) -> str:
    """Horizontal ASCII bar chart of non-negative counts."""
    vals = [float(c) for c in counts]
    if not vals:
        return ""
    if any(v < 0 for v in vals):
        raise ValueError("histogram counts must be non-negative")
    if labels is None:
        labels = [str(i) for i in range(len(vals))]
    if len(labels) != len(vals):
        raise ValueError("labels/counts length mismatch")
    peak = max(vals) or 1.0
    label_w = max(len(str(l)) for l in labels)
    lines = []
    for label, v in zip(labels, vals):
        bar = "#" * int(round(width * v / peak))
        lines.append(f"{str(label).rjust(label_w)} | {bar} {v:g}")
    return "\n".join(lines)
