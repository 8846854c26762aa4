"""Command-line surface.

Element grammar (accepted by --nu/--mu/--c/--p and friends):
    "3"          rational integer
    "1+2*w"      a + b*omega (also "2*w", "w", "-w")
    "(a,b)"      coordinate pair a + b*omega
    "(a,b)/den"  fractional element
    "a/den"      rational fraction
    "delta"      the totally positive generator of the different
    "1/delta"    its inverse
Levels and moduli: an integer n for the principal ideal (n), "a,b,c" for an
HNF triple, or any element expression for the principal ideal it generates.

Exit codes: 0 success; 1 identity/bound violation found; 2 usage or
precondition error; 3 inconclusive certificate.
"""

from __future__ import annotations

import json
import random
import re
import sys
from fractions import Fraction

import click
import mpmath
from mpmath import iv

from . import __version__
from .errors import HPError
from .field import make_field
from .hecke import CoeffFunction, HeckeContext, check_multiplicativity, hecke_action, pairing
from .ideals import (FractionalIdeal, IdealHNF, different_ideal, element_ideal,
                     ideal_product, ideal_sum, ideals_of_norm, is_principal,
                     principal_ideal, unit_ideal)
from .intervals import DEFAULT_PREC, dec_str, hi, iv_ends, iv_str, prec_guard
from .kloosterman import (KloostermanQuery, SelbergTable, kloosterman_exact,
                          kloosterman_float, selberg_check, weil_bound)
from .poincare import (CertifyBudget, PoincareParams, certify_nonvanishing,
                       effective_constants, recurrence_check_cor45,
                       threshold_cor33, threshold_thm32, threshold_thm35)
from .residues import DEFAULT_ENUM_BUDGET


# the config keys, each with the click type that checks it there and as an option
CONFIG_TYPES = {"residue_budget": click.IntRange(min=1), "precision": click.IntRange(min=1),
                "format": click.Choice(["json", "csv", "table"])}


def parse_fraction(text: str) -> Fraction:
    """A click type: its ValueError is reported as a usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has denominator 0") from None


class Settings:
    """What a command reads, popped from its arguments `kw`: each option it
    takes, else the config file, else the default.  A config key it does not
    read is checked, then ignored."""

    def __init__(self, kw):
        given = {name: kw.pop(name) for name in CONFIG_TYPES if name in kw}
        config_path = kw.pop("config_path")
        vals = {"residue_budget": DEFAULT_ENUM_BUDGET, "precision": DEFAULT_PREC,
                "format": "json"}
        if config_path:
            with open(config_path, "r", encoding="utf-8") as fh:
                try:
                    doc = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise click.UsageError(f"config is not valid JSON: {exc}") from None
            if not isinstance(doc, dict):
                raise click.UsageError("config must be a JSON object")
            unknown = set(doc) - set(CONFIG_TYPES)
            if unknown:
                raise click.UsageError(f"unknown config keys: {sorted(unknown)}")
            for name, value in doc.items():
                try:
                    vals[name] = CONFIG_TYPES[name].convert(value, None, None)
                except click.BadParameter as exc:
                    exc.param_hint = f"config {name}"
                    raise
        vals.update((name, arg) for name, arg in given.items() if arg is not None)
        self.residue_budget = vals["residue_budget"]
        self.precision = vals["precision"]
        self.format = vals["format"]


_ELT_RE = re.compile(r"^\(?\s*(-?\d+)\s*(?:,\s*(-?\d+)\s*)?\)?\s*(?:/\s*(\d+))?$")


def parse_element(field, text: str):
    s = text.strip().replace(" ", "")
    if s in ("delta", "+delta", "1/delta"):
        if field.delta is None:
            raise click.UsageError("field has no totally positive delta")
        return field.delta if s != "1/delta" else field.one() / field.delta
    m = re.match(r"^(-?\d+)?\s*([+-])?\s*(?:(-?\d+)\*)?w$", s)
    if m:
        a = int(m.group(1) or 0)
        b = int(m.group(3) or 1)
        if m.group(2) == "-":
            b = -b
        return field.elt(a, b)
    m = _ELT_RE.match(s)
    if m:
        a = int(m.group(1))
        b = int(m.group(2) or 0)
        den = int(m.group(3) or 1)
        if den == 0:
            raise click.UsageError(f"element {text!r} has denominator 0")
        return field.elt(a, b, den)
    raise click.UsageError(f"cannot parse element {text!r}")


def parse_ideal(field, text: str) -> IdealHNF:
    s = text.strip()
    if re.match(r"^\d+\s*,\s*\d+\s*,\s*\d+$", s):
        a, b, c = (int(t) for t in s.split(","))
        return IdealHNF(field, a, b, c)
    g = parse_element(field, s)
    if not g.is_integral():
        raise click.UsageError("ideal generator must be integral")
    return principal_ideal(g)


def emit(doc, fmt: str, csv_columns=None):
    if fmt == "json":
        click.echo(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    elif fmt == "csv":
        import csv as csv_mod
        import io
        rows = doc if isinstance(doc, list) else [doc]
        cols = csv_columns or sorted({k for r in rows for k in r})
        buf = io.StringIO()
        w = csv_mod.writer(buf, lineterminator="\n")
        w.writerow(cols)
        for r in rows:
            w.writerow([json.dumps(r[c], sort_keys=True) if isinstance(r.get(c), (dict, list))
                        else r.get(c, "") for c in cols])
        click.echo(buf.getvalue(), nl=False)
    else:  # table
        rows = doc if isinstance(doc, list) else [doc]
        for r in rows:
            for k in sorted(r):
                click.echo(f"{k}: {r[k]}")
            click.echo("")


OPTIONS = {
    "d": click.option("--d", "d", type=int, required=True, help="squarefree d of Q(sqrt d)"),
    "format": click.option("--format", type=CONFIG_TYPES["format"], default=None,
                           help="output format (default json)"),
    "config_path": click.option("--config", "config_path", type=click.Path(exists=True),
                                default=None, help="JSON config file"),
    "precision": click.option("--precision", type=CONFIG_TYPES["precision"], default=None,
                              help="interval bits"),
    "residue_budget": click.option("--residue-budget", type=CONFIG_TYPES["residue_budget"],
                                   default=None, help="max residue ring size"),
}


def common_options(*reads):
    """--d, --format, --config and, of the other OPTIONS, those named in
    `reads`: a command takes only the options it reads."""
    def decorate(fn):
        for name, option in OPTIONS.items():
            if name in ("d", "format", "config_path", *reads):
                fn = option(fn)
        return fn
    return decorate


class _Group(click.Group):
    """Every package error (bad input, unmet precondition, exhausted budget)
    is a usage or precondition error: exit 2 with a one-line message."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except HPError as exc:
            raise click.UsageError(str(exc)) from None


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="hilbert-poincare")
def main():
    """Kloosterman sums, Selberg's identity, and certified non-vanishing of
    Hilbert Poincare series over real quadratic fields."""


@main.command("field-info")
@common_options("precision")
def cmd_field_info(d, **kw):
    """Print the field's derived data."""
    st = Settings(kw)
    F = make_field(d)
    doc = {"field": F.spec_string(), "basis": F.basis_kind, "D": F.D,
           "fundamental_unit": F.fundamental_unit.to_json(),
           "fu_norm": F.fu_norm, "eps_plus": F.eps_plus.to_json(),
           "delta": F.delta.to_json() if F.delta is not None else None,
           "A": iv_str(F.A_interval(st.precision)), "f2": F.f2,
           "narrow_h1": F.narrow_h1}
    emit(doc, st.format)


@main.command("kloosterman")
@common_options("precision", "residue_budget")
@click.option("--nu", required=True)
@click.option("--mu", required=True)
@click.option("--c", "c_text", required=True)
@click.option("--modulus", default=None, help="HNF a,b,c; default (c)")
def cmd_kloosterman(d, nu, mu, c_text, modulus, **kw):
    """Evaluate one Kloosterman sum (exact + interval + Weil bound)."""
    st = Settings(kw)
    F = make_field(d)
    nu_e, mu_e, c_e = (parse_element(F, t) for t in (nu, mu, c_text))
    mod = parse_ideal(F, modulus) if modulus else principal_ideal(c_e)
    q = KloostermanQuery(F, nu_e, mu_e, mod, c_e)
    val = kloosterman_exact(q, st.residue_budget)
    doc = {"query": q.to_json(),
           "exact": {"order": val.order,
                     "value_as_rational_if_real": val.as_int()}}
    re_iv, im_iv = val.complex_interval(st.precision)
    doc["float"] = {"re": iv_ends(re_iv), "im": iv_ends(im_iv)}
    wb = weil_bound(q)
    doc["weil_bound"] = {"coeff": str(wb.coeff), "radicand": str(wb.radicand),
                         "interval": iv_str(wb.interval(st.precision))}
    emit(doc, st.format)


def _selberg_grid(F, qgen, size):
    base = [F.zero(), F.one(), F.from_int(2), F.omega(), qgen]
    if size == "full":
        base += [F.elt(1, 1), F.elt(2, 1), qgen * 2, F.elt(-1, 2)]
    return base[:5] if size == "small" else base


@main.command("selberg-check")
@common_options("residue_budget")
@click.option("--max-norm-q", type=click.IntRange(min=1), default=200)
@click.option("--grid", type=click.Choice(["small", "full"]), default="small")
def cmd_selberg_check(d, max_norm_q, grid, **kw):
    """Sweep Selberg's identity over q with |N(q)| <= bound; exit 1 on any
    exact mismatch.  A triple whose (nu, mu, q) has a non-principal divisor
    is skipped and counted."""
    st = Settings(kw)
    F = make_field(d)
    checked, failures, skipped, outside = 0, 0, 0, False
    for n in range(1, max_norm_q + 1):
        for idl in ideals_of_norm(F, n):
            g = is_principal(idl)
            if g is None:
                continue
            table = SelbergTable(F, g)   # q's divisors, rings and terms, shared by its grid
            for nu in _selberg_grid(F, g, grid):
                for mu in _selberg_grid(F, g, grid):
                    rep = selberg_check(F, nu, mu, g, table=table,
                                        enum_budget=st.residue_budget)
                    outside = outside or rep.outside_hypotheses
                    if rep.holds is None:
                        skipped += 1
                        continue
                    checked += 1
                    if not rep.holds:
                        failures += 1
    doc = {"field": F.spec_string(), "checked": checked, "failures": failures,
           "max_norm_q": max_norm_q, "status": "all hold" if not failures else "FAILED"}
    if outside:
        doc["outside_hypotheses"] = True
    if skipped:
        doc["skipped"] = skipped
    emit(doc, st.format)
    if failures:
        sys.exit(1)


@main.command("weil-audit")
@common_options("precision", "residue_budget")
@click.option("--samples", type=click.IntRange(min=1), default=500)
@click.option("--seed", type=int, default=20260808)
def cmd_weil_audit(d, samples, seed, **kw):
    """Sample random queries and report max |S| / weil_bound (must be <= 1)."""
    st = Settings(kw)
    F = make_field(d)
    rng = random.Random(seed)
    diff = different_ideal(F)
    lists = {n: ideals_of_norm(F, n) for n in range(2, 61)}
    # per modulus drawn: the box m*d and its inverse, and its residue ring;
    # per exact Weil bound: its interval
    boxes, rings, bounds = {}, {}, {}
    max_ratio = mpmath.mpf(0)
    violations = 0
    done = 0
    while done < samples:
        opts = lists[rng.randint(2, 60)]
        if not opts:
            continue
        mod = rng.choice(opts)
        mkey = mod.key()
        if mkey not in boxes:
            box = ideal_product(mod, diff)
            boxes[mkey] = box, FractionalIdeal(box).inverse()
        box, box_inv = boxes[mkey]
        s, t = rng.randint(-4, 4), rng.randint(-4, 4)
        if s == 0 and t == 0:
            s = 1
        c_e = F.elt(s * box.a + t * box.b, t * box.c)
        if c_e.is_zero():
            continue
        # nu, mu sampled as lattice points of c*(m d)^{-1}, so membership
        # holds by construction
        dom = element_ideal(c_e) * box_inv
        def rand_in_dom():
            u, v = rng.randint(-8, 8), rng.randint(-8, 8)
            return F.elt(u * dom.num.a + v * dom.num.b, v * dom.num.c, dom.den)
        nu, mu = rand_in_dom(), rand_in_dom()
        q = KloostermanQuery(F, nu, mu, mod, c_e)
        re_iv, im_iv = kloosterman_float(q, st.precision, st.residue_budget, rings)
        wb = weil_bound(q)
        bkey = (wb.coeff, wb.radicand)
        if bkey not in bounds:
            bounds[bkey] = wb.interval(st.precision)
        with prec_guard(st.precision):   # an upper bound on |S| / weil_bound
            ratio = hi(iv.sqrt(re_iv ** 2 + im_iv ** 2) / bounds[bkey])
        if ratio > max_ratio:
            max_ratio = ratio
        if ratio > 1:
            violations += 1
        done += 1
    emit({"field": F.spec_string(), "samples": samples,
          "max_ratio": dec_str(max_ratio, True), "violations": violations}, st.format)
    if violations:
        sys.exit(1)


@main.command("certify")
@common_options("precision", "residue_budget")
@click.option("--k", type=int, required=True)
@click.option("--level", default="1")
@click.option("--mu", "mu_text", required=True)
@click.option("--eta", type=parse_fraction, default="1/2")
@click.option("--max-x", type=int, default=CertifyBudget.max_X)
@click.option("--max-m", type=int, default=CertifyBudget.max_M)
def cmd_certify(d, k, level, mu_text, eta, max_x, max_m, **kw):
    """Certify non-vanishing of the mu-th Poincare series (c = O)."""
    st = Settings(kw)
    F = make_field(d)
    params = PoincareParams(F, k, level=parse_ideal(F, level))
    mu = parse_element(F, mu_text)
    # eta selects the printed ledger alone; built first, a bad eta exits 2
    # before the ladder evaluates a coefficient
    ledger = effective_constants(F, eta)
    cert = certify_nonvanishing(params, mu, CertifyBudget(max_x, max_m),
                                precision=st.precision,
                                enum_budget=st.residue_budget)
    doc = cert.to_json()
    doc["ledger"] = ledger.to_json()
    emit(doc, st.format)
    if cert.verdict != "NONZERO":
        sys.exit(3)


@main.command("thresholds")
@common_options()
@click.option("--k", type=int, required=True)
@click.option("--level", default="1")
@click.option("--eta", type=parse_fraction, default="1/2")
@click.option("--alpha", default="1", help="totally positive alpha for the fractional-ideal threshold")
def cmd_thresholds(d, k, level, eta, alpha, **kw):
    """Print the constants ledger and the three norm thresholds."""
    st = Settings(kw)
    F = make_field(d)
    lvl = parse_ideal(F, level)
    alpha_e = parse_element(F, alpha)
    led = effective_constants(F, eta)
    doc = {"field": F.spec_string(), "k": k, "level": lvl.to_json(),
           "ledger": led.to_json(),
           "threshold_thm32": dec_str(threshold_thm32(F, k, unit_ideal(F), lvl, eta, led),
                                      False),
           "threshold_cor33": dec_str(threshold_cor33(
               F, k, FractionalIdeal(unit_ideal(F)), lvl, alpha_e, led), False),
           "threshold_thm35": dec_str(threshold_thm35(F, k, lvl), False)}
    emit(doc, st.format)


@main.command("recurrence")
@common_options("precision", "residue_budget")
@click.option("--k", type=int, required=True)
@click.option("--nu", default="1")
@click.option("--mu", default="1")
@click.option("--p", "p_text", required=True)
@click.option("--m", type=int, default=1)
@click.option("--n", type=int, default=1)
@click.option("--x", "x_cut", type=int, default=2000)
@click.option("--big-m", type=int, default=3)
@click.option("--level", default="1")
def cmd_recurrence(d, k, nu, mu, p_text, m, n, x_cut, big_m, level, **kw):
    """Check the symmetric-coefficient recurrence at the given cutoffs."""
    st = Settings(kw)
    F = make_field(d)
    params = PoincareParams(F, k, level=parse_ideal(F, level))
    rep = recurrence_check_cor45(
        params, parse_element(F, nu), parse_element(F, mu),
        parse_element(F, p_text), m, n, x_cut, big_m,
        precision=st.precision, enum_budget=st.residue_budget)
    emit({"status": rep.status, "lhs": iv_ends(rep.lhs), "rhs": iv_ends(rep.rhs),
          "shared_width": dec_str(rep.shared_width, True)}, st.format)
    if rep.status == "inconsistent":
        sys.exit(1)
    if rep.status == "inconclusive":
        sys.exit(3)


@main.command("hecke-check")
@common_options()
@click.option("--k", type=int, default=8)
@click.option("--level", default="1")
@click.option("--samples", type=click.IntRange(min=1), default=200)
@click.option("--seed", type=int, default=20260808)
def cmd_hecke_check(d, k, level, samples, seed, **kw):
    """Randomized pairing-symmetry / identity / multiplicativity audit."""
    st = Settings(kw)
    F = make_field(d)
    ctx = HeckeContext(k, parse_ideal(F, level))
    rng = random.Random(seed)
    lists = {n: ideals for n in range(1, 120) if (ideals := ideals_of_norm(F, n))}
    norms = list(lists)

    def rand_ideal():
        return rng.choice(lists[rng.choice(norms)])

    def rand_f():
        f = CoeffFunction()
        for _ in range(rng.randint(1, 5)):
            f[rand_ideal()] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return f

    sym_fail = ident_fail = mult_fail = mult_done = 0
    for _ in range(samples):
        m_i, q_i, f = rand_ideal(), rand_ideal(), rand_f()
        if pairing(ctx, m_i, q_i, f) != pairing(ctx, q_i, m_i, f):
            sym_fail += 1
        if hecke_action(ctx, unit_ideal(F), f) != f:
            ident_fail += 1
        if ideal_sum(m_i, q_i).is_unit_ideal() and mult_done < samples // 2:
            mult_done += 1
            if not check_multiplicativity(ctx, m_i, q_i, f):
                mult_fail += 1
    doc = {"field": F.spec_string(), "samples": samples,
           "symmetry_failures": sym_fail, "identity_failures": ident_fail,
           "multiplicativity_checked": mult_done,
           "multiplicativity_failures": mult_fail}
    emit(doc, st.format)
    if sym_fail or ident_fail or mult_fail:
        sys.exit(1)


if __name__ == "__main__":
    main()
