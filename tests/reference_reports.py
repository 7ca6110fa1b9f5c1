"""Per-cell reference renderers for the byte-identity tests.

These are the report writers as they were before rendering went to one
pass per matrix: one ``round`` per number, one format call per cell, one
``csv.writer.writerow`` per CSV line and ``json.dump`` for JSON. The
package's renderers must produce exactly the same text.
"""

import csv
import io
import json

PCT_DECIMALS = 3
PARAM_DECIMALS = 6


def pct(fraction):
    return round(float(fraction) * 100.0, PCT_DECIMALS)


def param(value):
    return round(float(value), PARAM_DECIMALS)


def pct_matrix(mat):
    return [[pct(v) for v in row] for row in mat]


def results_to_dict(results):
    alts = list(results.alternatives)
    central = {}
    for name in alts:
        if name in results.central_weights:
            central[name] = [param(v) for v in results.central_weights[name]]
    return {
        "mode": results.mode,
        "sample_count": results.sample_count,
        "alternatives": alts,
        "parameters": list(results.columns),
        "rank_acceptability_pct": pct_matrix(results.rank_acceptability),
        "p2_preference_pct": pct_matrix(results.p2_pref),
        "p2_indifference_pct": pct_matrix(results.p2_indiff),
        "p1_preference_pct": pct_matrix(results.p1_pref),
        "p1_indifference_pct": pct_matrix(results.p1_indiff),
        "p1_incomparability_pct": pct_matrix(results.p1_incomp),
        "central_weights": central,
        "barycenter": [param(v) for v in results.barycenter],
        "ror_possible_approx": results.ror_possible_approx.tolist(),
        "ror_necessary_approx": results.ror_necessary_approx.tolist(),
    }


def to_json(payload):
    buf = io.StringIO()
    json.dump(payload, buf, indent=2, sort_keys=True)
    return buf.getvalue()


def matrix_block(title, row_labels, col_labels, rows, decimals):
    width = max(10, max(len(c) for c in col_labels) + 2)
    label_w = max(len(r) for r in row_labels) + 2
    lines = [title]
    lines.append(" " * label_w + "".join(f"{c:>{width}}" for c in col_labels))
    for label, row in zip(row_labels, rows):
        cells = "".join(f"{v:>{width}.{decimals}f}" for v in row)
        lines.append(f"{label:<{label_w}}" + cells)
    lines.append("")
    return lines


def render_text(report):
    alts = report["alternatives"]
    params = report["parameters"]
    ranks = [f"r{r}" for r in range(1, len(alts) + 1)]
    lines = [
        f"SMAA report  mode={report['mode']}  samples={report['sample_count']}",
        "",
    ]
    lines += matrix_block("Rank acceptability (%)", alts, ranks,
                          report["rank_acceptability_pct"], PCT_DECIMALS)
    for title, key in (
        ("Complete-ranking preference frequency (%)", "p2_preference_pct"),
        ("Complete-ranking indifference frequency (%)", "p2_indifference_pct"),
        ("Partial-order preference frequency (%)", "p1_preference_pct"),
        ("Partial-order indifference frequency (%)", "p1_indifference_pct"),
        ("Partial-order incomparability frequency (%)", "p1_incomparability_pct"),
    ):
        lines += matrix_block(title, alts, alts, report[key], PCT_DECIMALS)
    central_rows = [report["central_weights"][a] for a in alts
                    if a in report["central_weights"]]
    central_labels = [a for a in alts if a in report["central_weights"]]
    if central_rows:
        lines += matrix_block(
            "Central parameter vectors (means of rank-1 samples)",
            central_labels, params, central_rows, PARAM_DECIMALS,
        )
    lines += matrix_block("Barycenter of the sampled polytope", ["all"], params,
                          [report["barycenter"]], PARAM_DECIMALS)

    def grid(title, matrix):
        width = max(6, max(len(c) for c in alts) + 2)
        label_w = max(len(r) for r in alts) + 2
        out = [title, " " * label_w + "".join(f"{c:>{width}}" for c in alts)]
        for label, row in zip(alts, matrix):
            cells = "".join(f"{'X' if v else '.':>{width}}" for v in row)
            out.append(f"{label:<{label_w}}" + cells)
        out.append("")
        return out

    lines += grid("Outranking possible (sampled estimate)",
                  report["ror_possible_approx"])
    lines += grid("Outranking necessary (sampled estimate)",
                  report["ror_necessary_approx"])
    return "\n".join(lines)


def render_csv(report):
    alts = report["alternatives"]
    params = report["parameters"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["section", "row", "col", "value"])

    def emit(section, row_labels, col_labels, rows):
        for label, row in zip(row_labels, rows):
            for col, v in zip(col_labels, row):
                writer.writerow([section, label, col, v])

    ranks = [f"r{r}" for r in range(1, len(alts) + 1)]
    emit("rank_acceptability_pct", alts, ranks, report["rank_acceptability_pct"])
    for key in ("p2_preference_pct", "p2_indifference_pct", "p1_preference_pct",
                "p1_indifference_pct", "p1_incomparability_pct"):
        emit(key, alts, alts, report[key])
    for name in alts:
        if name in report["central_weights"]:
            emit("central_weights", [name], params, [report["central_weights"][name]])
    emit("barycenter", ["all"], params, [report["barycenter"]])
    for key in ("ror_possible_approx", "ror_necessary_approx"):
        emit(key, alts, alts, report[key])
    return buf.getvalue()
