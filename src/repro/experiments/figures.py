"""Method×scenario figures from a sweep directory (``repro figures``): the
data as JSON, and standalone SVG bars with no plotting dependency. The grid
comes back from the directory's ``spec.json`` and the numbers from the
sweep's own summary, read through the run store, so a leftover run of
another grid is never counted. The paper's own tables and figures are
claims in :mod:`repro.experiments.claims`.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "scenario_matrix",
    "render_grouped_bars_svg",
    "write_scenario_figures",
]

#: Categorical series colors (validated fixed-order palette, light mode) and
#: text/surface tokens for the standalone SVG figures. Hues are assigned to
#: methods in fixed slot order, never cycled; with more than eight methods
#: the extras would have to fold into "other" (the registry holds six).
_SERIES_COLORS = (
    "#2a78d6",  # blue
    "#eb6834",  # orange
    "#1baf7a",  # aqua
    "#eda100",  # yellow
    "#e87ba4",  # magenta
    "#008300",  # green
    "#4a3aa7",  # violet
    "#e34948",  # red
)
_SURFACE = "#fcfcfb"
_TEXT_PRIMARY = "#0b0b0b"
_TEXT_SECONDARY = "#52514e"
_GRID = "#e8e7e3"


def _scenario_label(group: str) -> str:
    """Short axis label for a scenario group.

    Trace scenarios carry a whole file path; label them by the file's stem
    (``trace:diurnal_tiny``, keeping a ``#p<N>`` population suffix).
    Composed scenarios keep their grammar form — the full string stays in
    tooltips and the emitted JSON either way.
    """
    if not group.startswith("trace:"):
        return group
    path, sep, population = group[len("trace:"):].partition("#p")
    return f"trace:{Path(path).stem}{sep}{population}"


def scenario_matrix(path: str | Path) -> dict:
    """Method×scenario comparison data from a sweep directory.

    ``path`` is the directory or any JSON file in it. Metrics are the rows
    of :meth:`SweepRunner.summarize`: seed-means per method and scenario
    group, a virtual population's cells grouped apart as ``<scenario>#p<N>``.
    Methods and groups follow the grid's order; cells not run yet are
    skipped, so a partial sweep draws what it has.
    """
    from repro.experiments.sweep import SweepRunner, SweepSpec

    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no sweep at {path}")
    directory = path if path.is_dir() else path.parent
    spec = SweepSpec.from_file(directory / "spec.json")
    rows = SweepRunner(spec, directory).summarize()["rows"]
    if not rows:
        raise ValueError(f"no completed sweep cells found under {directory}")
    groups = dict.fromkeys(cell.group for cell in spec.cells())
    done = [(m, g) for m in spec.methods for g in groups if f"{m}@{g}" in rows]
    methods = list(dict.fromkeys(m for m, _ in done))
    drawn = {g for _, g in done}
    names = ("best_accuracy", "final_accuracy", "megabytes", "updates")
    metrics: dict = {name: {m: {} for m in methods} for name in names}
    seeds: dict = {m: {} for m in methods}
    for m, g in done:
        row = rows[f"{m}@{g}"]
        for name in names:
            metrics[name][m][g] = row[name]
        seeds[m][g] = len(row["seeds"])
    return {
        "methods": methods,
        "scenarios": [g for g in groups if g in drawn],
        "metrics": metrics,
        "seeds": seeds,
        "source": str(directory),
    }


def render_grouped_bars_svg(
    matrix: dict,
    metric: str = "best_accuracy",
    *,
    title: str | None = None,
    value_format: str = "{:.3f}",
) -> str:
    """Render one method×scenario metric as a standalone grouped-bar SVG.

    Scenario groups sit on the x axis with one thin, baseline-anchored bar
    per method inside each group (fixed-order series hues, 2px surface gap
    between adjacent bars, rounded data ends). A legend names the methods;
    each bar carries a native ``<title>`` tooltip with its exact value, and
    the exact numbers ship in the JSON emitted next to the figure.
    """
    methods = matrix["methods"]
    scenarios = matrix["scenarios"]
    values = matrix["metrics"][metric]
    if len(methods) > len(_SERIES_COLORS):
        raise ValueError(
            f"{len(methods)} methods exceed the {len(_SERIES_COLORS)}-slot palette"
        )
    peak = max(
        (values[m][s] for m in methods for s in scenarios if s in values[m]),
        default=0.0,
    )
    peak = peak if peak > 0 else 1.0

    bar_w, bar_gap, group_gap = 16, 2, 28
    margin_l, margin_r, margin_t, margin_b = 52, 16, 44, 40
    plot_h = 180
    group_w = len(methods) * (bar_w + bar_gap) - bar_gap
    width = margin_l + len(scenarios) * (group_w + group_gap) + margin_r
    height = margin_t + plot_h + margin_b + 24  # legend row at the bottom
    baseline = margin_t + plot_h
    title = title or f"{metric.replace('_', ' ')} by method and scenario"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="system-ui, sans-serif">',
        f'<rect width="{width}" height="{height}" fill="{_SURFACE}"/>',
        f'<text x="{margin_l}" y="20" font-size="13" font-weight="600" '
        f'fill="{_TEXT_PRIMARY}">{title}</text>',
    ]
    # Recessive horizontal grid with axis value labels.
    for i in range(5):
        frac = i / 4
        y = baseline - frac * plot_h
        parts.append(
            f'<line x1="{margin_l}" y1="{y:.1f}" x2="{width - margin_r}" '
            f'y2="{y:.1f}" stroke="{_GRID}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{margin_l - 6}" y="{y + 3.5:.1f}" font-size="10" '
            f'text-anchor="end" fill="{_TEXT_SECONDARY}">'
            f"{value_format.format(frac * peak)}</text>"
        )
    # Bars: baseline-anchored with rounded tops only.
    for si, scenario in enumerate(scenarios):
        gx = margin_l + si * (group_w + group_gap)
        for mi, method in enumerate(methods):
            if scenario not in values[method]:
                continue
            v = values[method][scenario]
            h = plot_h * (v / peak)
            x = gx + mi * (bar_w + bar_gap)
            y = baseline - h
            r = min(3.0, h / 2)
            path = (
                f"M {x} {baseline} L {x} {y + r:.2f} "
                f"Q {x} {y:.2f} {x + r:.2f} {y:.2f} "
                f"L {x + bar_w - r:.2f} {y:.2f} "
                f"Q {x + bar_w} {y:.2f} {x + bar_w} {y + r:.2f} "
                f"L {x + bar_w} {baseline} Z"
            )
            label = f"{method} @ {scenario}: {value_format.format(v)}"
            parts.append(
                f'<path d="{path}" fill="{_SERIES_COLORS[mi]}">'
                f"<title>{label}</title></path>"
            )
        parts.append(
            f'<text x="{gx + group_w / 2:.1f}" y="{baseline + 16}" '
            f'font-size="10" text-anchor="middle" '
            f'fill="{_TEXT_SECONDARY}">{_scenario_label(scenario)}</text>'
        )
    parts.append(
        f'<line x1="{margin_l}" y1="{baseline}" x2="{width - margin_r}" '
        f'y2="{baseline}" stroke="{_TEXT_SECONDARY}" stroke-width="1"/>'
    )
    # Legend: one swatch+name per method, text in text tokens.
    lx = margin_l
    ly = baseline + 34
    for mi, method in enumerate(methods):
        parts.append(
            f'<rect x="{lx}" y="{ly}" width="10" height="10" rx="2" '
            f'fill="{_SERIES_COLORS[mi]}"/>'
        )
        parts.append(
            f'<text x="{lx + 14}" y="{ly + 9}" font-size="10" '
            f'fill="{_TEXT_PRIMARY}">{method}</text>'
        )
        lx += 14 + 7 * len(method) + 18
    parts.append("</svg>")
    return "\n".join(parts)


def write_scenario_figures(path: str | Path, out_dir: str | Path) -> list[Path]:
    """Emit method×scenario figures (SVG) + data table (JSON) from a sweep.

    ``path`` points at a sweep directory (or a JSON file inside one);
    figures land in ``out_dir``. Returns the written paths.
    """
    matrix = scenario_matrix(path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    data_path = out / "method_x_scenario.json"
    data_path.write_text(json.dumps(matrix, indent=2, sort_keys=True))
    written.append(data_path)
    panels = (
        ("best_accuracy", "best accuracy by method and scenario", "{:.3f}"),
        ("megabytes", "total transfer (MB) by method and scenario", "{:.1f}"),
    )
    for metric, title, fmt in panels:
        svg = render_grouped_bars_svg(
            matrix, metric, title=title, value_format=fmt
        )
        svg_path = out / f"method_x_scenario_{metric}.svg"
        svg_path.write_text(svg)
        written.append(svg_path)
    return written
