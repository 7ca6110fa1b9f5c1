import json
import re

import numpy as np
import pytest

from smaa_promethee.bipolar import (
    EnumerationCapError,
    ParameterLayout,
    GeneralBicapacity,
    bipolar_choquet_general,
)
from smaa_promethee.elicitation import (
    ConstraintRow,
    ConstraintSystem,
    Statement,
    compile_statements,
    parse_statement,
    parse_statements,
    restrict_classical,
)
from smaa_promethee.promethee import preference_tensor

from conftest import (
    FIXTURES,
    full_monotonicity_system,
    random_table,
    random_valid_params,
)
from reference_bipolar import bipolar_preference_vector, definitional_flows


def statement_rows(system: ConstraintSystem):
    """Rows originating from statements, i.e. everything before closure."""
    return [r for r in system.rows if r.origin.startswith("statement")]


# per JSON type: the required keys, the fields they give (every other
# field at its default), every key, and the fields that gives; labels
# become strings, criterion references stay as given
PARSE_CASES = {
    "local_pair": (
        {"a": "s7", "b": "s2"}, {"a": "s7", "b": "s2", "kind": "P"},
        {"a": 7, "b": "s2", "kind": "I"}, {"a": "7", "b": "s2", "kind": "I"},
    ),
    "global_p1": (
        {"a": "s1", "b": "s2"}, {"a": "s1", "b": "s2", "kind": "P"},
        {"a": "s1", "b": 2, "kind": "I"}, {"a": "s1", "b": "2", "kind": "I"},
    ),
    "global_p2": (
        {"a": "s1", "b": "s2"}, {"a": "s1", "b": "s2", "kind": "P"},
        {"a": "s3", "b": "s6", "kind": "I"}, {"a": "s3", "b": "s6", "kind": "I"},
    ),
    "intensity": (
        {"pair1": ["s1", "s2"], "pair2": ["s3", "s4"]},
        {"pair1": ("s1", "s2"), "pair2": ("s3", "s4"), "kind": "P"},
        {"pair1": [1, "s2"], "pair2": ["s3", 4], "kind": "I"},
        {"pair1": ("1", "s2"), "pair2": ("s3", "4"), "kind": "I"},
    ),
    "criterion_importance": (
        {"j": 1, "k": "Physics"}, {"j": 1, "k": "Physics", "kind": ">"},
        {"j": "3", "k": 2, "kind": "="}, {"j": "3", "k": 2, "kind": "="},
    ),
    "interaction_sign": (
        {"j": 1, "k": 2}, {"j": 1, "k": 2, "sign": "+"},
        {"j": 1, "k": "Physics", "sign": "0"}, {"j": 1, "k": "Physics", "sign": "0"},
    ),
    "interaction_magnitude": (
        {"pair1": [1, 2], "pair2": [1, 3]},
        {"pair1": (1, 2), "pair2": (1, 3), "signs": ("+", "+"), "kind": ">"},
        {"pair1": [1, "Physics"], "pair2": [2, 3], "signs": ["-", "+"], "kind": "="},
        {"pair1": (1, "Physics"), "pair2": (2, 3), "signs": ("-", "+"), "kind": "="},
    ),
    "opposing_power": (
        {"variant": "a", "fixed": 1, "stronger": 2, "weaker": 3},
        {"variant": "a", "fixed": 1, "stronger": 2, "weaker": 3, "kind": ">"},
        {"variant": "b", "fixed": "Physics", "stronger": 1, "weaker": 3, "kind": "="},
        {"variant": "b", "fixed": "Physics", "stronger": 1, "weaker": 3, "kind": "="},
    ),
}


def test_parse_all_types():
    for stype, (required, defaults, full, expected) in PARSE_CASES.items():
        assert parse_statement({"type": stype, **required}) == Statement(stype, defaults)
        parsed = parse_statement({"type": stype, **full})
        assert parsed == Statement(stype, expected)
        assert [type(v) for v in parsed.fields.values()] == [
            type(v) for v in expected.values()]


def test_statement_origins(students):
    statements = [
        Statement("local_pair", {"a": "s7", "b": "s2"}),
        Statement("global_p1", {"a": "s1", "b": "s2", "kind": "I"}),
        Statement("global_p1", {"a": "s3", "b": "s4"}),
        Statement("global_p2", {"a": "s3", "b": "s6"}),
        Statement("intensity", {"pair1": ("s1", "s2"), "pair2": ("s3", "s4"), "kind": "I"}),
        Statement("criterion_importance", {"j": "Physics", "k": 1}),
        Statement("interaction_sign", {"j": 1, "k": 2, "sign": "-"}),
        Statement("interaction_magnitude", {"pair1": (1, 2), "pair2": (1, "Literature"),
                                            "signs": ("+", "-"), "kind": "="}),
        Statement("opposing_power", {"variant": "a", "fixed": 3, "stronger": 1, "weaker": 2}),
        Statement("opposing_power", {"variant": "b", "fixed": 1, "stronger": 2, "weaker": 3}),
    ]
    origins = [r.origin for r in statement_rows(compile_statements(students, statements))]
    assert origins == [
        "statement 1 (local_pair s7 P s2)",
        "statement 2 (global_p1 s1 I s2) [positive flows]",
        "statement 2 (global_p1 s1 I s2) [negative flows]",
        "statement 3 (global_p1 s3 P s4) [positive flows]",
        "statement 3 (global_p1 s3 P s4) [negative flows]",
        "statement 3 (global_p1 s3 P s4) [net flows]",
        "statement 4 (global_p2 s3 P s6)",
        "statement 5 (intensity (s1,s2) I (s3,s4))",
        "statement 6 (importance Physics > 1)",
        "statement 7 (interaction_sign 1,2 -)",
        "statement 8 (interaction_magnitude (1,2)+ = (1,Literature)-)",
        "statement 9 (opposing_power[a] 3: 1 > 2)",
        "statement 10 (opposing_power[b] 1: 2 > 3)",
    ]


def test_parse_rejects_unknown_keys():
    misspelt = {"type": "interaction_sign", "j": 1, "k": 2, "kind": "-"}
    with pytest.raises(ValueError, match=r"^file:2: unknown key 'kind'$"):
        parse_statement(misspelt, "file:2")
    with pytest.raises(ValueError, match="unknown key 'better', 'worse'"):
        parse_statement({"type": "local_pair", "better": "s1", "worse": "s2"})


@pytest.mark.parametrize("pairs", [(["s1", "s1"], ["s3", "s4"]),
                                   (["s1", "s2"], ["s4", "s4"])])
def test_parse_rejects_intensity_self_pairs(pairs):
    obj = {"type": "intensity", "pair1": pairs[0], "pair2": pairs[1]}
    with pytest.raises(ValueError, match="the two alternatives must differ"):
        parse_statement(obj)


def test_compile_rejects_an_object_that_is_no_statement(students):
    with pytest.raises(TypeError, match="unsupported statement"):
        compile_statements(students, [object()])


def test_parse_rejects_malformed():
    with pytest.raises(ValueError, match="unknown statement type"):
        parse_statement({"type": "nope"})
    with pytest.raises(ValueError, match="missing field"):
        parse_statement({"type": "local_pair", "a": "s1"})
    with pytest.raises(ValueError, match="kind"):
        parse_statement({"type": "local_pair", "a": "s1", "b": "s2", "kind": "X"})
    with pytest.raises(ValueError, match="must differ"):
        parse_statement({"type": "local_pair", "a": "s1", "b": "s1"})
    with pytest.raises(ValueError, match="sign"):
        parse_statement({"type": "interaction_sign", "j": 1, "k": 2, "sign": "?"})
    with pytest.raises(ValueError, match="variant"):
        parse_statement(
            {"type": "opposing_power", "variant": "c", "fixed": 1,
             "stronger": 2, "weaker": 3}
        )


# each of these compiled, silently or into an internal TypeError, while
# only the parser checked statements
@pytest.mark.parametrize("stype, fields", [
    ("local_pair", {"a": "s1", "b": "s2", "kind": "X"}),
    ("local_pair", {"a": "s1", "b": "s1"}),
    ("opposing_power", {"variant": "z", "fixed": 1, "stronger": 2, "weaker": 3}),
    ("intensity", {"pair1": ["s1", "s2", "s3"], "pair2": ["s3", "s4"]}),
    ("interaction_sign", {"j": 1, "k": 2, "sign": "x"}),
])
def test_statement_built_in_code_gets_the_checks_of_a_line(stype, fields):
    with pytest.raises(ValueError) as from_line:
        parse_statements([json.dumps({"type": stype, **fields})])
    message = str(from_line.value).replace("<lines>:1: ", "statement: ", 1)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Statement(stype, fields)


def test_parse_statements_files_and_lines():
    sc1 = parse_statements(FIXTURES / "scenario1.jsonl")
    assert [s.type for s in sc1] == ["local_pair", "local_pair"]
    assert sc1[0].fields["a"] == "s7" and sc1[0].fields["b"] == "s2"
    sc2 = parse_statements(FIXTURES / "scenario2.jsonl")
    assert [s.type for s in sc2] == ["intensity", "intensity"]
    assert parse_statements(FIXTURES / "empty.jsonl") == []
    with pytest.raises(ValueError, match="<lines>:2"):
        parse_statements(["# fine", "{broken"])


def test_empty_compile_structure(students):
    system = compile_statements(students, [])
    assert system.n_cols == 13
    assert system.eps_col == 12
    assert system.variable_names[-1] == "eps"
    # closure: normalisation + 3 sign rows + 6 opposing rows + 12 monotonicity
    # (n * 2^(n-1) covering splits; the other 15 of the 3^(n-1) per
    # criterion are implied, see test_monotonicity_rows_are_the_covering_splits)
    assert len(system.rows) == 22
    origins = [r.origin for r in system.rows]
    assert origins.count("normalisation") == 1
    assert sum(o.startswith("power") for o in origins) == 3
    assert sum(o.startswith("opposing") for o in origins) == 6
    assert sum(o.startswith("monotonicity") for o in origins) == 12
    norm = system.rows[0]
    assert norm.rel == "=" and norm.rhs == 1.0
    assert norm.coefs[:3].tolist() == [1.0] * 3
    assert norm.coefs[12] == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_monotonicity_rows_are_the_covering_splits(n):
    system = compile_statements(random_table(np.random.default_rng(n), 3, n), [])
    layout = system.layout
    mono = [r for r in system.rows if r.origin.startswith("monotonicity")]
    assert len(mono) == n * 2 ** (n - 1)
    full = {
        r.coefs.tobytes()
        for r in full_monotonicity_system(system).rows
        if r.origin.startswith("full monotonicity")
    }
    assert len(full) == n * 3 ** (n - 1)
    assert len({r.coefs.tobytes() for r in mono}) == len(mono)
    for row in mono:
        assert row.coefs.tobytes() in full
        assert row.rel == ">=" and row.rhs == 0.0
        # the split names every other criterion once, as supporter or opponent
        j = int(np.flatnonzero(row.coefs[:n])[0])
        touched = {k for k in range(n) if k != j and (
            row.coefs[layout.pair_col(j, k)] or row.coefs[layout.opp_col(j, k)])}
        assert touched == set(range(n)) - {j}


def test_criterion_importance_row(students):
    layout = ParameterLayout(3)
    system = compile_statements(
        students, [Statement("criterion_importance", {"j": 1, "k": 2, "kind": ">"})])
    row = statement_rows(system)[0]
    assert row.rel == ">=" and row.rhs == 0.0
    assert row.coefs[layout.a_col(0)] == 1.0
    assert row.coefs[layout.a_col(1)] == -1.0
    assert row.coefs[system.eps_col] == -1.0

    eq = statement_rows(
        compile_statements(
            students, [Statement("criterion_importance", {"j": "Physics", "k": 1, "kind": "="})])
    )[0]
    assert eq.rel == "=" and eq.coefs[system.eps_col] == 0.0
    assert eq.coefs[layout.a_col(1)] == 1.0
    assert eq.coefs[layout.a_col(0)] == -1.0


def test_interaction_rows(students):
    layout = ParameterLayout(3)
    eps = layout.size
    plus = statement_rows(
        compile_statements(
            students, [Statement("interaction_sign", {"j": 1, "k": 2, "sign": "+"})])
    )[0]
    assert plus.rel == ">=" and plus.coefs[layout.pair_col(0, 1)] == 1.0
    assert plus.coefs[eps] == -1.0

    minus = statement_rows(
        compile_statements(
            students, [Statement("interaction_sign", {"j": 1, "k": 2, "sign": "-"})])
    )[0]
    # pair value at most -eps
    assert minus.rel == ">=" and minus.coefs[layout.pair_col(0, 1)] == -1.0
    assert minus.coefs[eps] == -1.0

    zero = statement_rows(
        compile_statements(
            students, [Statement("interaction_sign", {"j": 1, "k": 2, "sign": "0"})])
    )[0]
    assert zero.rel == "=" and zero.coefs[eps] == 0.0

    syn_syn = statement_rows(
        compile_statements(
            students,
            [Statement("interaction_magnitude",
                       {"pair1": (1, 2), "pair2": (1, 3), "signs": ("+", "+")})],
        )
    )[0]
    assert syn_syn.coefs[layout.pair_col(0, 1)] == 1.0
    assert syn_syn.coefs[layout.pair_col(0, 2)] == -1.0

    syn_red = statement_rows(
        compile_statements(
            students,
            [Statement("interaction_magnitude",
                       {"pair1": (1, 2), "pair2": (1, 3), "signs": ("+", "-")})],
        )
    )[0]
    assert syn_red.coefs[layout.pair_col(0, 1)] == 1.0
    assert syn_red.coefs[layout.pair_col(0, 2)] == 1.0


def test_opposing_power_rows(students):
    layout = ParameterLayout(3)
    eps = layout.size
    # variant a: against criterion 1, criterion 2 opposes more than criterion 3
    va = statement_rows(
        compile_statements(
            students,
            [Statement("opposing_power", {"variant": "a", "fixed": 1, "stronger": 2, "weaker": 3})],
        )
    )[0]
    assert va.rel == ">="
    assert va.coefs[layout.opp_col(0, 2)] == 1.0
    assert va.coefs[layout.opp_col(0, 1)] == -1.0
    assert va.coefs[eps] == -1.0

    vb = statement_rows(
        compile_statements(
            students,
            [Statement("opposing_power", {"variant": "b", "fixed": 1, "stronger": 2, "weaker": 3})],
        )
    )[0]
    assert vb.coefs[layout.opp_col(2, 0)] == 1.0
    assert vb.coefs[layout.opp_col(1, 0)] == -1.0


def test_local_pair_row_dual_route(students):
    layout = ParameterLayout(3)
    system = compile_statements(students, parse_statements(FIXTURES / "scenario1.jsonl"))
    rows = statement_rows(system)
    assert len(rows) == 2
    x = bipolar_preference_vector(students, "s7", "s2")
    rng = np.random.default_rng(3)
    for _ in range(10):
        params = random_valid_params(rng, 3)
        theta = layout.pack(params)
        expect = bipolar_choquet_general(x, GeneralBicapacity.from_params(params)).net
        assert float(rows[0].coefs[: layout.size] @ theta) == pytest.approx(
            expect, abs=1e-12
        )


def test_global_p1_rows_dual_route(students):
    layout = ParameterLayout(3)
    system = compile_statements(
        students, [Statement("global_p1", {"a": "s3", "b": "s2", "kind": "P"})])
    rows = statement_rows(system)
    assert len(rows) == 3
    assert "[positive flows]" in rows[0].origin
    assert "[negative flows]" in rows[1].origin
    assert "[net flows]" in rows[2].origin
    assert rows[2].coefs[system.eps_col] == -1.0
    assert rows[0].coefs[system.eps_col] == 0.0
    rng = np.random.default_rng(5)
    ia, ib = students.alternative_index("s3"), students.alternative_index("s2")
    for _ in range(10):
        params = random_valid_params(rng, 3)
        theta = layout.pack(params)
        flows = definitional_flows(students, params)
        assert float(rows[0].coefs[: layout.size] @ theta) == pytest.approx(
            flows.positive[ia] - flows.positive[ib], abs=1e-12
        )
        assert float(rows[1].coefs[: layout.size] @ theta) == pytest.approx(
            flows.negative[ib] - flows.negative[ia], abs=1e-12
        )
        assert float(rows[2].coefs[: layout.size] @ theta) == pytest.approx(
            flows.net[ia] - flows.net[ib], abs=1e-12
        )


def test_intensity_rows_dual_route(students):
    layout = ParameterLayout(3)
    system = compile_statements(students, parse_statements(FIXTURES / "scenario2.jsonl"))
    rows = statement_rows(system)
    assert len(rows) == 2
    x12 = bipolar_preference_vector(students, "s1", "s2")
    x34 = bipolar_preference_vector(students, "s3", "s4")
    rng = np.random.default_rng(9)
    for _ in range(10):
        params = random_valid_params(rng, 3)
        theta = layout.pack(params)
        bicap = GeneralBicapacity.from_params(params)
        expect = (
            bipolar_choquet_general(x12, bicap).net
            - bipolar_choquet_general(x34, bicap).net
        )
        assert float(rows[0].coefs[: layout.size] @ theta) == pytest.approx(
            expect, abs=1e-12
        )


def test_statement_linearity_finite_difference(students):
    layout = ParameterLayout(3)
    statements = [
        Statement("local_pair", {"a": "s7", "b": "s2", "kind": "P"}),
        Statement("global_p2", {"a": "s3", "b": "s6", "kind": "P"}),
        Statement("intensity", {"pair1": ("s1", "s2"), "pair2": ("s3", "s4"), "kind": "P"}),
    ]
    system = compile_statements(students, statements)
    rows = statement_rows(system)
    x72 = bipolar_preference_vector(students, "s7", "s2")
    x12 = bipolar_preference_vector(students, "s1", "s2")
    x34 = bipolar_preference_vector(students, "s3", "s4")
    i3, i6 = students.alternative_index("s3"), students.alternative_index("s6")

    def exprs(theta: np.ndarray) -> list[float]:
        params = layout.unpack(theta)
        bicap = GeneralBicapacity.from_params(params)
        flows = definitional_flows(students, params)
        return [
            bipolar_choquet_general(x72, bicap).net,
            flows.net[i3] - flows.net[i6],
            bipolar_choquet_general(x12, bicap).net
            - bipolar_choquet_general(x34, bicap).net,
        ]

    rng = np.random.default_rng(11)
    base = rng.uniform(-0.5, 0.5, size=layout.size)
    h = 1e-4
    for col in range(layout.size):
        up = base.copy()
        down = base.copy()
        up[col] += h
        down[col] -= h
        grad = (np.array(exprs(up)) - np.array(exprs(down))) / (2 * h)
        for row, g in zip(rows, grad):
            assert row.coefs[col] == pytest.approx(g, abs=1e-8)


def test_compile_deterministic(students):
    statements = parse_statements(FIXTURES / "scenario2.jsonl")
    one = compile_statements(students, statements)
    two = compile_statements(students, statements)
    assert len(one.rows) == len(two.rows)
    for r1, r2 in zip(one.rows, two.rows):
        assert np.array_equal(r1.coefs, r2.coefs)
        assert (r1.rel, r1.rhs, r1.origin) == (r2.rel, r2.rhs, r2.origin)


def test_restrict_classical(students):
    layout = ParameterLayout(3)
    system = compile_statements(
        students, [Statement("global_p2", {"a": "s3", "b": "s6", "kind": "P"})])
    restricted = restrict_classical(system)
    extra = restricted.rows[len(system.rows):]
    assert len(extra) == 9
    assert all(r.rel == "=" and r.rhs == 0.0 for r in extra)
    pinned = {int(np.flatnonzero(r.coefs)[0]) for r in extra}
    assert pinned == set(range(3, 12))

    # under the restriction the net-flow row acts on weights alone; its
    # power coefficients must match per-criterion net flows computed
    # straight from the preference degrees
    row = statement_rows(restricted)[0]
    tensor = preference_tensor(students)
    m = students.n_alternatives
    i3, i6 = students.alternative_index("s3"), students.alternative_index("s6")
    for j in range(3):
        pi_j = tensor[:, :, j]
        net_j = (pi_j.sum(axis=1) - pi_j.sum(axis=0)) / (m - 1)
        assert row.coefs[layout.a_col(j)] == pytest.approx(
            net_j[i3] - net_j[i6], abs=1e-12
        )


def test_restrict_classical_origins_name_each_pinned_column(students):
    system = compile_statements(students, [])
    extra = restrict_classical(system).rows[len(system.rows):]
    assert [r.origin for r in extra] == [
        "classical restriction " + name
        for name in ("pair_1,2", "pair_1,3", "pair_2,3", "opp_1|2", "opp_1|3",
                     "opp_2|1", "opp_2|3", "opp_3|1", "opp_3|2")
    ]
    assert [int(np.flatnonzero(r.coefs)[0]) for r in extra] == list(range(3, 12))


def test_compile_error_provenance(students):
    # a statement built in code has no file line to name
    with pytest.raises(ValueError, match=r"^statement 1 \(local_pair s9 P s2\): .*s9"):
        compile_statements(students, [Statement("local_pair", {"a": "s9", "b": "s2"})])
    with pytest.raises(ValueError, match=r"statement 2"):
        compile_statements(
            students,
            [Statement("local_pair", {"a": "s7", "b": "s2"}),
             Statement("criterion_importance", {"j": "Quality", "k": 1})],
        )
    with pytest.raises(ValueError, match="must differ"):
        compile_statements(students, [Statement("criterion_importance", {"j": 1, "k": 1})])
    # a parsed one names its line first, but its rows' origins do not
    lines = ['{"type": "local_pair", "a": "s7", "b": "s2"}', "",
             '{"type": "local_pair", "a": "s1", "b": "s9"}']
    parsed = parse_statements(lines)
    assert [st.source for st in parsed] == ["<lines>:1", "<lines>:3"]
    assert parsed[0] == Statement("local_pair", {"a": "s7", "b": "s2"})
    with pytest.raises(ValueError, match=r"^<lines>:3: statement 2 \(local_pair s1 P s9\)"):
        compile_statements(students, parsed)
    origins = [r.origin for r in compile_statements(students, parsed[:1]).rows]
    assert origins[0] == "statement 1 (local_pair s7 P s2)"


def test_compile_capacity_cap():
    rng = np.random.default_rng(2)
    wide = random_table(rng, 3, 9)
    with pytest.raises(EnumerationCapError):
        compile_statements(wide, [])


def test_split_shapes(students):
    system = compile_statements(students, parse_statements(FIXTURES / "scenario1.jsonl"))
    a_eq, b_eq, eq_orig, a_ub, b_ub, ub_orig = system.split()
    assert a_eq.shape == (1, 13) and b_eq.shape == (1,)
    assert a_ub.shape[0] == len(system.rows) - 1
    assert len(eq_orig) == 1 and len(ub_orig) == a_ub.shape[0]
    # >= rows arrive negated so every inequality reads <=
    strict = statement_rows(system)[0]
    k = ub_orig.index(strict.origin)
    assert np.array_equal(a_ub[k], -strict.coefs)


def test_system_packs_its_rows_once_in_row_order(students):
    system = restrict_classical(compile_statements(
        students, parse_statements(FIXTURES / "all_types.jsonl")))
    assert {row.rel for row in system.rows} == {"=", "<=", ">="}
    assert system.A.shape == (len(system.rows), system.n_cols)
    assert system.origins == tuple(row.origin for row in system.rows)
    for i, row in enumerate(system.rows):
        sign = -1.0 if row.rel == ">=" else 1.0
        assert np.array_equal(system.A[i], sign * row.coefs)
        assert system.b[i] == sign * row.rhs
        assert system.eq[i] == (row.rel == "=")
    # every solver shares the arrays, so none may write to them
    for array in (system.A, system.b, system.eq):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # split() is the two groups of those rows, each in row order
    a_eq, b_eq, eq_orig, a_ub, b_ub, ub_orig = system.split()
    order = np.argsort(~system.eq, kind="stable")
    assert np.array_equal(np.vstack([a_eq, a_ub]), system.A[order])
    assert np.array_equal(np.append(b_eq, b_ub), system.b[order])
    assert eq_orig + ub_orig == tuple(system.origins[i] for i in order)


def test_excess_is_each_row_judged_by_its_own_relation(students):
    system = compile_statements(students, parse_statements(FIXTURES / "all_types.jsonl"))
    assert {row.rel for row in system.rows} == {"=", "<=", ">="}
    rng = np.random.default_rng(4)
    points = rng.standard_normal((5, system.layout.size))
    for eps in (0.0, 0.3):
        excess = system.excess(points, eps)
        assert excess.shape == (5, len(system.rows))
        for i, row in enumerate(system.rows):
            lhs = points @ row.coefs[:-1] + row.coefs[-1] * eps
            want = {"=": np.abs(lhs - row.rhs), "<=": lhs - row.rhs,
                    ">=": row.rhs - lhs}[row.rel]
            np.testing.assert_allclose(excess[:, i], want, rtol=0.0, atol=1e-12)
        # one vector gives one row of excesses
        np.testing.assert_allclose(system.excess(points[2], eps), excess[2],
                                   rtol=0.0, atol=1e-12)
