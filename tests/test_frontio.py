import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meromat
from meromat.errors import InputError, ParseError
from meromat.exactalg import QQ, Poly, RatFn
from meromat.frontio import cli, files, parse_entry
from meromat.holomat import QuasiPolyEntry, QuasiPolyMat, TdsData
from meromat.polymat import PolyMat
from meromat.ratmat import RatMat
from meromat.sysmat import Amd

Z = Poly.z()
ONE = Poly.one()


def qp_entry(*terms):
    return QuasiPolyEntry(terms)


class TestParser:
    def test_polynomial(self):
        e = parse_entry("z^2 - 3*z + 1")
        assert e.kind == "polynomial"
        assert e.value == Poly((QQ(1), QQ(-3), QQ(1)))

    def test_quasipoly(self):
        e = parse_entry("z - exp(-1*z)")
        assert e.kind == "quasipoly"
        assert e.value.terms == ((Z, QQ(0)), (Poly.const(QQ(-1)), QQ(1)))

    def test_rational(self):
        e = parse_entry("(z + 1)/(z - 2)")
        assert e.kind == "rational"
        assert e.value == RatFn(Z + ONE, Z - Poly.const(QQ(2)))

    def test_rational_literal(self):
        e = parse_entry("3/4 + 1/2*z")
        assert e.kind == "polynomial"
        assert e.value == Poly((QQ(3, 4), QQ(1, 2)))

    def test_reduction_to_polynomial(self):
        e = parse_entry("(z^2 - 1)/(z - 1)")
        assert e.kind == "polynomial"
        assert e.value == Z + ONE

    def test_fractional_delay(self):
        e = parse_entry("exp(-1/2*z)")
        assert e.kind == "quasipoly"
        assert e.value.terms == ((ONE, QQ(1, 2)),)

    def test_positive_growth_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_entry("exp(2*z)")
        assert exc.value.offset == 4

    def test_zero_coefficient_exp(self):
        e = parse_entry("exp(0*z)")
        assert e.kind == "polynomial"
        assert e.value == ONE

    def test_syntax_error_offsets(self):
        for text, offset in [("z +", 3), ("(z", 2), ("z @ 1", 2),
                             ("foo", 0), ("z^", 2)]:
            with pytest.raises(ParseError) as exc:
                parse_entry(text)
            assert exc.value.offset == offset, text

    def test_division_by_delay_rejected(self):
        with pytest.raises(ParseError):
            parse_entry("1/exp(-1*z)")

    def test_division_by_zero(self):
        with pytest.raises(ParseError):
            parse_entry("z/(z - z)")

    def test_unary_minus(self):
        assert parse_entry("-z^2").value == Poly((QQ(0), QQ(0), QQ(-1)))
        assert parse_entry("--1").value == ONE

    def test_promotion_points(self):
        e = parse_entry("exp(0*z)*z/(z-1)")
        assert (e.kind, e.value) == ("rational", RatFn(Z, Z - ONE))
        e = parse_entry("0*exp(-1*z)")
        assert (e.kind, e.value) == ("polynomial", Poly.zero())
        e = parse_entry("exp(-1*z)/2")
        assert e.kind == "quasipoly"
        assert e.value.terms == ((Poly.const(QQ(1, 2)), QQ(1)),)
        e = parse_entry("z/(exp(0*z))")
        assert (e.kind, e.value) == ("polynomial", Z)
        with pytest.raises(ParseError) as exc:
            parse_entry("exp(-1*z)/z")
        assert exc.value.offset == 0

    def test_delayed_over_rational_factor(self):
        # a denominator that divides every term leaves a quasi-polynomial
        for text, value in [
                ("exp(-1*z)*((z^2-1)/(z-1))", qp_entry((Z + ONE, QQ(1)))),
                ("exp(-1*z)*(z/z)", qp_entry((ONE, QQ(1)))),
                ("exp(-1*z)/(1/z)", qp_entry((Z, QQ(1)))),
                ("(z*exp(-1*z) + z^2)/(2*z)",
                 qp_entry((Z.scale(QQ(1, 2)), QQ(0)),
                          (Poly.const(QQ(1, 2)), QQ(1))))]:
            e = parse_entry(text)
            assert (e.kind, e.value) == ("quasipoly", value), text
        for text in ("exp(-1*z)/z", "(z + exp(-1*z))/(z-1)",
                     "exp(-1*z)*((z^2-1)/(z+2))"):
            with pytest.raises(ParseError) as exc:
                parse_entry(text)
            assert exc.value.offset == 0, text


poly_strategy = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    min_size=0, max_size=5,
).map(lambda cs: Poly([QQ(c.numerator, c.denominator) for c in cs]))

delay_strategy = st.fractions(min_value=0, max_value=5, max_denominator=6)


@st.composite
def qp_strategy(draw):
    n = draw(st.integers(1, 3))
    terms = [(draw(poly_strategy), QQ(d.numerator, d.denominator))
             for d in [draw(delay_strategy) for _ in range(n)]]
    return QuasiPolyEntry(terms)


class TestRenderRoundTrip:
    @given(poly_strategy)
    @settings(max_examples=150)
    def test_poly(self, p):
        e = parse_entry(str(p))
        assert e.kind == "polynomial"
        assert e.value == p

    @given(poly_strategy, poly_strategy)
    @settings(max_examples=150)
    def test_ratfn(self, num, den):
        if den.is_zero:
            return
        f = RatFn(num, den)
        e = parse_entry(str(f))
        assert e.kind != "quasipoly"
        assert RatFn.coerce(e.value) == f

    @given(qp_strategy())
    @settings(max_examples=150)
    def test_qp(self, q):
        e = parse_entry(str(q))
        assert e.kind != "rational"
        assert QuasiPolyEntry.coerce(e.value) == q


# Expression trees rendered to text, each with its value computed directly:
# a Poly for polynomial trees, a RatFn once a tree divides by a polynomial,
# a QuasiPolyEntry once an exp term appears. Delayed trees divide by
# integer literals, and by rational subterms only where these cancel, so
# their value is a quasi-polynomial.

small_int = st.integers(0, 9)
small_pow = st.integers(0, 3)


def _combine(children, lift, div):
    """Binary and power nodes over `children`; `lift` brings a value into
    the ring of the result and `div` divides by a value, or is None."""
    ops = [st.tuples(children, st.sampled_from("+-*"), children).map(
               lambda t: _binop(t[0], t[1], t[2], lift)),
           st.tuples(children, small_pow).map(
               lambda t: (f"({t[0][0]})^{t[1]}", _power(lift(t[0][1]), t[1],
                                                         lift(ONE)))),
           children.map(lambda a: (f"-({a[0]})", -lift(a[1])))]
    if div is not None:
        ops.append(st.tuples(children, children).filter(
            lambda t: not t[1][1].is_zero).map(
            lambda t: (f"({t[0][0]})/({t[1][0]})",
                       div(lift(t[0][1]), t[1][1]))))
    return st.one_of(ops)


def _power(x, n, one):
    # RatFn has no __pow__: repeated products in every ring alike
    for _ in range(n):
        one = one * x
    return one


def _binop(a, op, b, lift):
    x, y = lift(a[1]), lift(b[1])
    value = x + y if op == "+" else x - y if op == "-" else x * y
    return (f"({a[0]}) {op} ({b[0]})", value)


int_leaf = small_int.map(lambda n: (str(n), Poly.const(QQ(n))))
int_divisor = st.integers(1, 9)
poly_leaf = st.one_of(int_leaf, st.just(("z", Z)))

poly_tree = st.recursive(poly_leaf, lambda ch: st.one_of(
    _combine(ch, lambda v: v, None),
    st.tuples(ch, int_divisor).map(lambda t: (
        f"({t[0][0]})/{t[1]}", t[0][1].scale(QQ(1, t[1]))))),
    max_leaves=6)

quotient_leaf = st.tuples(poly_tree, poly_tree).filter(
    lambda t: t[1][1].degree > 0).map(lambda t: (
        f"({t[0][0]})/({t[1][0]})", RatFn(t[0][1], t[1][1])))

rational_tree = st.recursive(quotient_leaf, lambda ch:
                             _combine(ch, RatFn.coerce, lambda x, y: x / y),
                             max_leaves=5)

exp_leaf = st.tuples(small_int, st.integers(1, 4)).map(lambda t: (
    f"exp(-{t[0]}/{t[1]}*z)",
    QuasiPolyEntry(((ONE, QQ(t[0], t[1])),))))

nonzero_poly = poly_tree.filter(lambda t: not t[1].is_zero)


def _times(d, r):
    return QuasiPolyEntry.coerce(d) * QuasiPolyEntry.coerce(r)


delayed_tree = st.recursive(
    exp_leaf, lambda ch: st.one_of(
        _combine(st.one_of(ch, poly_tree), QuasiPolyEntry.coerce, None),
        st.tuples(ch, int_divisor).map(lambda t: (
            f"({t[0][0]})/{t[1]}", _times(t[0][1], QQ(1, t[1])))),
        # D * (Q R / Q) and D / (Q / (Q R)): D times R over a denominator
        st.tuples(ch, nonzero_poly, poly_tree).map(lambda t: (
            f"({t[0][0]})*((({t[1][0]})*({t[2][0]}))/({t[1][0]}))",
            _times(t[0][1], t[2][1]))),
        st.tuples(ch, nonzero_poly, nonzero_poly).map(lambda t: (
            f"({t[0][0]})/(({t[1][0]})/(({t[1][0]})*({t[2][0]})))",
            _times(t[0][1], t[2][1])))),
    max_leaves=6)


def _expected(value):
    """The kind and normalized value parse_entry must report."""
    if isinstance(value, QuasiPolyEntry):
        if not value.is_polynomial:
            return "quasipoly", value
        value = value.to_poly()
    if isinstance(value, RatFn):
        if not value.is_polynomial:
            return "rational", value
        value = value.num
    return "polynomial", value


def _check_parse(tree):
    text, value = tree
    kind, expected = _expected(value)
    e = parse_entry(text)
    assert e.kind == kind, text
    assert e.value == expected, text


class TestParserDifferential:
    @given(poly_tree)
    @settings(max_examples=150, deadline=None)
    def test_polynomial_trees(self, tree):
        _check_parse(tree)

    @given(rational_tree)
    @settings(max_examples=150, deadline=None)
    def test_rational_trees(self, tree):
        _check_parse(tree)

    @given(delayed_tree)
    @settings(max_examples=150, deadline=None)
    def test_delayed_trees(self, tree):
        _check_parse(tree)


MATRIX_TEXT = """meromat/1 matrix
kind rational
size 2 2
region -1 1 -1 1
row (1)/(z) ; z + 1
row 0 ; z^2 - 1/2
"""

AMD_TEXT = """meromat/1 amd
ring polynomial
dims 2 1 1
layout standard
block tl
row z ; 1
row 0 ; z
block tr
row 0
row 1
block bl
row -1 ; 0
block br
row 0
"""

TDS_TEXT = """meromat/1 tds
dims 2 1 1
matrix A0
row 0 ; 1
row -1 ; 0
matrix A 1
row 0 ; 0
row 1/2 ; 0
matrix B 0
row 1
row 0
matrix C 0
row 1 ; 0
"""


class TestFiles:
    def test_matrix_round_trip(self):
        mf = files.loads(MATRIX_TEXT)
        assert files.dumps(mf) == MATRIX_TEXT
        m = mf.matrix()
        assert isinstance(m, RatMat)
        assert m.rows == m.cols == 2

    def test_amd_round_trip(self):
        af = files.loads(AMD_TEXT)
        assert files.dumps(af) == AMD_TEXT
        h = af.amd()
        assert (h.state_dim, h.output_dim, h.input_dim) == (2, 1, 1)
        assert h.C == PolyMat([[ONE, Poly.zero()]])

    def test_no_row_matrix_round_trip(self):
        for m in (PolyMat([], 2), RatMat([], 3), QuasiPolyMat([], 1)):
            back = files.loads(files.dumps(m)).matrix()
            assert back == m and back.shape == (0, m.cols)

    @pytest.mark.parametrize("layout", ["standard", "flipped"])
    def test_amd_without_outputs_round_trip(self, layout):
        a = PolyMat([[Z, ONE], [Poly.zero(), Z]])
        h = Amd(A=a, B=PolyMat([[ONE], [Z]]), C=PolyMat([], 2),
                D=PolyMat([], 1))
        if layout == "flipped":  # [[D, -C], [B, A]]
            af = files.AmdFile(ring="polynomial", r=2, m=0, n=1,
                               layout=layout, blocks=((), (), h.B.entries,
                                                      a.entries))
        else:
            af = files.AmdFile.from_amd(h)
        back = files.loads(files.dumps(af))
        assert back == af and back.amd() == h

    def test_amd_layouts_agree(self):
        # one AMD written in every layout, B, C and D of three shapes; the
        # blocks each layout writes are spelled out here, apart from the
        # file module's table
        a = PolyMat([[Z, ONE], [Poly.zero(), Z]])
        b = PolyMat([[ONE, Z, Poly.zero()], [Z, ONE, ONE]])
        c = PolyMat([[Z + ONE, ONE]])
        d = PolyMat([[ONE, Poly.zero(), Z]])
        h = Amd(A=a, B=b, C=c, D=d)
        written = {
            "standard": (a, b, -c, d),       # [[A, B], [-C, D]]
            "flipped": (d, -c, b, a),        # [[D, -C], [B, A]]
            "flipped-neg-b": (d, c, -b, a),  # [[D, C], [-B, A]]
            "neg-b": (a, -b, c, d),          # [[A, -B], [C, D]]
            "neg-a": (-a, b, c, d),          # [[-A, B], [C, D]]
        }
        for layout, blocks in written.items():
            text = (f"meromat/1 amd\nring polynomial\ndims 2 1 3\n"
                    f"layout {layout}\n")
            for name, blk in zip(("tl", "tr", "bl", "br"), blocks):
                text += f"block {name}\n" + "".join(
                    "row " + " ; ".join(str(e) for e in row) + "\n"
                    for row in blk.entries)
            af = files.loads(text)
            assert af.amd() == h, layout
            assert files.dumps(af) == text, layout

    def test_rational_ring_amd(self):
        # a rational-ring file gives rational blocks; polynomial entries
        # make an AMD, a proper fraction is refused
        text = AMD_TEXT.replace("ring polynomial", "ring rational")
        af = files.loads(text.replace(
            "row 0 ; z\nblock tr", "row 0 ; (z^2 - 1)/(z - 1) - 1\nblock tr"))
        assert af.amd() == files.loads(AMD_TEXT).amd()
        assert files.dumps(af) == text
        bad = AMD_TEXT.replace("ring polynomial", "ring rational").replace(
            "block br\nrow 0", "block br\nrow (1)/(z + 1)")
        with pytest.raises(InputError, match="polynomial entries"):
            files.loads(bad).amd()

    @pytest.mark.parametrize("data", [
        TdsData(A0=((0, 1), (-1, 0)), C_terms=((((1, 0),), 0),),
                D_terms=((((1, 2),), 0), (((0, QQ(1, 2)),), 1))),
        TdsData(A0=((0, 1), (-1, 0)), B_terms=((((1,), (0,)), 0),),
                D_terms=((((1,), (3,)), 0),)),
    ])
    def test_tds_sizes_from_d_terms_round_trip(self, data):
        text = files.dumps(data)
        back = files.loads(text)
        assert back.data == data and files.dumps(back) == text

    def test_tds_round_trip(self):
        tf = files.loads(TDS_TEXT)
        assert files.dumps(tf) == TDS_TEXT
        assert tf.data.state_dim == 2
        assert tf.data.A_delayed[0][1] == QQ(1)

    def test_tds_dims_must_match_terms(self):
        # no B or D term carries the 2 inputs the dims line names, so the
        # loaded data would dump as dims 1 1 0
        text = ("meromat/1 tds\ndims 1 1 2\nmatrix A0\nrow 1\n"
                "matrix C 0\nrow 1\n")
        with pytest.raises(InputError, match="line 2: dims 1 1 2"):
            files.loads(text)
        ok = text.replace("dims 1 1 2", "dims 1 1 0")
        assert files.dumps(files.loads(ok)) == ok

    def test_ragged_tds_rows_rejected(self):
        # every row has the width the dims line gives its block
        ragged = TDS_TEXT.replace("matrix B 0\nrow 1\nrow 0\n",
                                  "matrix B 0\nrow 1\nrow 0 ; 3\n")
        assert ragged != TDS_TEXT
        with pytest.raises(InputError,
                           match="B delay 0 row 2: expected 1 entries"):
            files.loads(ragged)
        narrow = TDS_TEXT.replace("matrix C 0\nrow 1 ; 0\n",
                                  "matrix C 0\nrow 1\n")
        with pytest.raises(InputError,
                           match="C delay 0 row 1: expected 2 entries"):
            files.loads(narrow)
        with pytest.raises(InputError, match="A0 row 2: expected 2 entries"):
            files.loads(TDS_TEXT.replace("row -1 ; 0\n", "row -1\n"))

    def test_from_matrix_normalizes(self):
        m = PolyMat([[Z, ONE]])
        text = files.dumps(m)
        again = files.loads(text)
        assert again.matrix() == m
        assert files.dumps(again) == text

    def test_amd_save_is_canonical(self):
        af = files.loads(AMD_TEXT)
        h = af.amd()
        assert files.dumps(files.AmdFile.from_amd(h)) == AMD_TEXT

    def test_errors_are_addressed(self):
        with pytest.raises(InputError, match="line 1"):
            files.loads("not a header\n")
        with pytest.raises(InputError, match="line 3: expected 'size"):
            files.loads("meromat/1 matrix\nkind polynomial\nsiz 1 2\n")
        with pytest.raises(InputError, match="row 1 col 2"):
            files.loads("meromat/1 matrix\nkind polynomial\nsize 1 2\n"
                        "row z ; (1)/(z)\n")
        with pytest.raises(InputError, match="expected 2 entries"):
            files.loads("meromat/1 matrix\nkind polynomial\nsize 1 2\n"
                        "row z\n")
        with pytest.raises(InputError, match="layout"):
            files.loads("meromat/1 amd\nring polynomial\ndims 1 1 1\n"
                        "layout diagonal\n")

    @pytest.mark.parametrize("region", ["0 1 0 x", "0 1/0 0 1"])
    def test_bad_region_is_input_error(self, region):
        text = ("meromat/1 matrix\nkind polynomial\nsize 1 1\n"
                f"region {region}\nrow z\n")
        with pytest.raises(InputError, match="line 4: bad region value"):
            files.loads(text)

    def test_quasipoly_matrix(self):
        text = ("meromat/1 matrix\nkind quasipoly\nsize 1 1\n"
                "row z + (-1)*exp(-1*z)\n")
        mf = files.loads(text)
        assert isinstance(mf.matrix(), QuasiPolyMat)
        assert files.dumps(mf) == text

    def test_non_entry_is_not_written(self):
        # a grid holds Poly, RatFn or QuasiPolyEntry values; the writer
        # refuses any other, here a bare rational
        mf = files.MatrixFile(kind="polynomial", rows=1, cols=2,
                              entries=((Z, QQ(1)),))
        with pytest.raises(InputError,
                           match="cannot render entry of type Fraction"):
            files.dumps(mf)


# The directory that holds the imported ``meromat`` package.  The child
# interpreter gets it first on PYTHONPATH, so it runs the same package as this
# process whatever its working directory and however the package was found.
PACKAGE_ROOT = str(Path(meromat.__file__).resolve().parents[1])


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "meromat.frontio.cli",
                           *args], capture_output=True, text=True, cwd=cwd,
                          env=env)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "m.mm").write_text(
        "meromat/1 matrix\nkind polynomial\nsize 2 2\n"
        "row z ; 1\nrow 0 ; z^2\n")
    (tmp_path / "h.mm").write_text(AMD_TEXT)
    (tmp_path / "t.mm").write_text(TDS_TEXT)
    return tmp_path


class TestCli:
    def test_smith(self, workdir):
        res = run_cli("smith", "m.mm", "--json", cwd=workdir)
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["invariant_factors"] == ["1", "z^3"]
        assert doc["tool"] == "meromat"

    def test_deterministic_json(self, workdir):
        a = run_cli("smith", "m.mm", "--json", cwd=workdir)
        b = run_cli("smith", "m.mm", "--json", cwd=workdir)
        assert a.returncode == 0 and b.returncode == 0
        json.loads(a.stdout)
        assert a.stdout == b.stdout

    def test_amd_check(self, workdir):
        res = run_cli("amd", "check", "h.mm", "--json", cwd=workdir)
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["irreducible"] is True
        assert doc["is_least"] is True

    def test_count(self, workdir):
        res = run_cli("count", "m.mm", "--circle", "0,0,1", "--json",
                      cwd=workdir)
        assert res.returncode == 0
        assert json.loads(res.stdout)["n_minus_p"] == 3

    def test_tds_poles(self, workdir):
        res = run_cli("tds", "poles", "t.mm", "--circle", "0,0,2", "--json",
                      cwd=workdir)
        assert res.returncode == 0
        assert "n_minus_p" in json.loads(res.stdout)

    def test_missing_file_exits_2(self, workdir):
        res = run_cli("smith", "nope.mm", cwd=workdir)
        assert res.returncode == 2
        assert res.stderr.startswith("error: ")
        assert "nope.mm" in res.stderr

    def test_bad_tolerance_exits_2(self, workdir):
        res = run_cli("count", "--tol=nan", "--circle=0,0,1", "m.mm",
                      cwd=workdir)
        assert res.returncode == 2
        assert res.stderr.startswith("error: ")
        assert "tolerance" in res.stderr

    def test_analysis_failure_exits_1(self, workdir):
        # circle through the zero at the origin
        res = run_cli("count", "m.mm", "--circle", "1,0,1", cwd=workdir)
        assert res.returncode == 1
        assert "analysis failed" in res.stderr

    def test_bad_region_exits_2(self, workdir):
        (workdir / "bad.mm").write_text(
            "meromat/1 matrix\nkind polynomial\nsize 1 1\n"
            "region 0 1/0 0 1\nrow z\n")
        res = run_cli("smith", "bad.mm", cwd=workdir)
        assert res.returncode == 2
        assert res.stderr.startswith("error: ")
        assert "bad region value" in res.stderr

    def test_rational_amd_entry_exits_2(self, workdir):
        (workdir / "r.mm").write_text(
            AMD_TEXT.replace("ring polynomial", "ring rational").replace(
                "block br\nrow 0", "block br\nrow (1)/(z+1)"))
        res = run_cli("amd", "check", "r.mm", cwd=workdir)
        assert res.returncode == 2
        assert res.stderr.startswith("error: ")
        assert "polynomial entries" in res.stderr

    def test_wrong_kind_exits_2(self, workdir):
        res = run_cli("smith-mcmillan", "t.mm", cwd=workdir)
        assert res.returncode == 2
        # argparse usage errors also exit with 2; check it is the CLI's own
        assert res.stderr.startswith("error: ")
        assert "t.mm: expected a matrix file" in res.stderr


class TestCliInProcess:
    """cli.main called repeatedly in one process, as an embedding program
    would: the argument parser is built once and reused."""

    @pytest.fixture(autouse=True)
    def _cwd(self, workdir, monkeypatch):
        (workdir / "g.mm").write_text(MATRIX_TEXT)
        monkeypatch.chdir(workdir)

    def run(self, capsys, *argv):
        code = cli.main(list(argv))
        return code, capsys.readouterr().out

    def test_parser_is_reused(self, capsys):
        parser = cli._build_parser()
        assert self.run(capsys, "smith", "m.mm")[0] == 0
        assert self.run(capsys, "least-order", "g.mm")[0] == 0
        assert cli._build_parser() is parser

    def test_no_defaults_leak(self, capsys):
        code, out = self.run(capsys, "mfd", "g.mm", "--side", "left")
        assert code == 0 and "side: left" in out
        code, out = self.run(capsys, "mfd", "g.mm")
        assert code == 0 and "side: right" in out

    def test_usage_error_then_success(self, capsys):
        first = self.run(capsys, "smith", "m.mm", "--json")
        with pytest.raises(SystemExit) as exc:
            cli.main(["local-indices", "m.mm"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert self.run(capsys, "smith", "m.mm", "--json") == first
        assert first[0] == 0

    @pytest.mark.parametrize("argv, message", [
        (["count", "m.mm", "--circle=0,0,-1"],
         "circle radius must be positive"),
        (["roots", "m.mm", "--region=1,-1,-1,1"],
         "rectangle must have positive area"),
        (["count", "m.mm", "--circle=0,0,5", "--samples=0"],
         "samples must be at least 1, not 0"),
        (["local-indices", "m.mm", "--json", "--point=nan,0"],
         "local indices need a finite point"),
        (["local-indices", "g.mm", "--json", "--point=inf,0"],
         "local indices need a finite point"),
        (["local-indices", "m.mm", "--point=0,0", "--kmax=-1"],
         "kmax must be from 0 to 64, not -1"),
        (["local-indices", "m.mm", "--point=0,0", "--kmax=1000000"],
         "kmax must be from 0 to 64, not 1000000"),
    ])
    def test_bad_numeric_input_exits_2(self, capsys, argv, message):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err

    # each command's argv and the tolerance options it takes, in report
    # order; every command takes --json
    COMMANDS = [
        (["smith", "m.mm"], ()),
        (["smith-mcmillan", "g.mm"], ()),
        (["mfd", "g.mm", "--side=left"], ()),
        (["least-order", "g.mm"], ()),
        (["amd", "check", "h.mm"], ()),
        (["amd", "reduce", "h.mm"], ()),
        (["amd", "equate", "h.mm", "h.mm"], ()),
        (["amd", "to-rmf", "h.mm"], ()),
        (["amd", "to-lmf", "h.mm"], ()),
        (["count", "m.mm", "--circle=0,0,1"],
         ("tol", "max_subdiv", "samples")),
        (["roots", "m.mm", "--region=-1,1,-1,1"], ("tol",)),
        (["local-indices", "m.mm", "--point=0,0", "--kmax=4"], ()),
        (["tds", "build", "t.mm"], ()),
        (["tds", "poles", "t.mm", "--circle=0,0,2"],
         ("tol", "max_subdiv", "samples")),
    ]

    @pytest.mark.parametrize("argv, taken", COMMANDS,
                             ids=[" ".join(a[:2]) for a, _ in COMMANDS])
    def test_reports_only_the_tolerances_it_takes(self, capsys, argv, taken):
        code, out = self.run(capsys, *argv, "--json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc)[:2] == ["tool", "version"]
        assert tuple(doc.get("tolerances", {})) == taken
        assert ("tolerances" in doc) == bool(taken)
        assert doc["command"] == " ".join(
            argv[:2] if argv[0] in ("amd", "tds") else argv[:1])
        for flag, value in (("tol", "1e-6"), ("max_subdiv", "9"),
                            ("samples", "64")):
            option = "--" + flag.replace("_", "-") + "=" + value
            if flag in taken:
                code, out = self.run(capsys, *argv, "--json", option)
                assert code == 0
                assert json.loads(out)["tolerances"][flag] == float(value)
                continue
            with pytest.raises(SystemExit) as exc:
                cli.main([*argv, option])
            assert exc.value.code == 2
            assert (f"unrecognized arguments: {option}"
                    in capsys.readouterr().err)

    def test_roots_takes_no_circle(self, capsys):
        # roots searches a rectangle: a circle is a usage error
        with pytest.raises(SystemExit) as exc:
            cli.main(["roots", "m.mm", "--json", "--region=-1,1,-1,1",
                      "--circle=5,5,0.1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --circle" in capsys.readouterr().err

    def test_singular_matrix_exits_1(self, capsys, workdir):
        (workdir / "s.mm").write_text(
            "meromat/1 matrix\nkind polynomial\nsize 2 2\n"
            "row z ; z\nrow 1 ; 1\n")
        assert cli.main(["count", "s.mm", "--circle=0.5,0.5,1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("analysis failed: ")
        assert "normal rank 1 < 2" in err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"meromat {meromat.__version__}"

    def test_matches_subprocess(self, capsys, workdir):
        code, out = self.run(capsys, "smith", "m.mm", "--json")
        res = run_cli("smith", "m.mm", "--json", cwd=workdir)
        assert code == res.returncode == 0
        assert out == res.stdout
