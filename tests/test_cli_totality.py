"""Every command ends in a verdict or a one-line error.

A property over argv drawn from a grammar of valid and malformed values for
each of the eight commands:
  - d from squarefree fields (small and large units: 193, 241, 997) and
    from non-squarefree or too small values (4, 12, 1, 0, -5);
  - elements, levels and moduli in every syntax of the CLI's grammar, one
    with 56-bit coordinates (2 eps_plus^40 over Q(sqrt 5)), and malformed
    ones;
  - weights up to 24, eta, cutoffs (small, so the property stays fast), a
    residue budget small enough that certify and recurrence meet rings over
    it, seeds, --format and a config file, valid or not.

It asserts that the command raises nothing but SystemExit; that the exit
code is 0, 1 or 3, or 2 with an "Error:" line and no traceback; that on
well-formed input over a squarefree d an exit 2 never comes from a budget;
and that every NONZERO certificate printed passes `audit_certificate`.
A second property spells one level as an element and as its HNF triple, and
asserts that certify prints the same bytes for both.
"""

import json
import random
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from hilbertpoincare import cli
from hilbertpoincare.field import make_field
from hilbertpoincare.poincare import audit_certificate

from oracles import ideal_from_elements

FIELDS = (2, 5, 13, 193, 241, 997)
NOT_FIELDS = (4, 12, 1, 0, -5)
HUGE = "(28944668049352442,46833456696935370)"   # 2 eps_plus^40 over Q(sqrt 5)
ELEMENTS = ("1", "3", "w", "-w", "1+2*w", "2*w", "(3,1)", "(2,-1)", "(1,1)/2",
            "1/3", "delta", "1/delta", HUGE)
BAD_ELEMENTS = ("x", "(1,", "1/0", "", "w*w")
LEVELS = ("1", "2", "w", "3", "2,0,2", "(3,1)", HUGE)
BAD_LEVELS = ("3,1,1", "0", "-1,0,1", "q")
CONFIGS = {"precision": {"precision": 80}, "format": {"format": "table"}}
BAD_CONFIGS = {"unknown key": {"cache_dir": "x"}, "not an object": [1],
               "bad value": {"precision": 0}}


@pytest.fixture(scope="module")
def config_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("configs")
    paths = {}
    for name, doc in {**CONFIGS, **BAD_CONFIGS}.items():
        path = root / (name.replace(" ", "_") + ".json")
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths[name] = str(path)
    bad = root / "not_json.json"
    bad.write_text("{", encoding="utf-8")
    paths["not json"] = str(bad)
    return paths


COMMANDS = ("field-info", "kloosterman", "selberg-check", "weil-audit", "certify",
            "thresholds", "recurrence", "hecke-check")


@st.composite
def invocations(draw, cmd):
    """(argv, well_formed, config name or None) for the command `cmd`: each
    value is malformed with probability 1/8.  Hypothesis draws the seed of
    the choices: its own draws lean to the first choice, these are uniform."""
    rng, ok = random.Random(draw(st.integers(0, 2**64))), [True]

    def pick(good, bad=()):
        if bad and rng.random() < 1 / 8:
            ok[0] = False
            return str(rng.choice(bad))
        return str(rng.choice(good))

    argv = [cmd, "--d", pick(FIELDS, NOT_FIELDS)]
    if cmd == "kloosterman":
        argv += ["--nu", pick(ELEMENTS, BAD_ELEMENTS), "--mu", pick(ELEMENTS),
                 "--c", pick(("1", "2", "w", "(2,1)", "3"), ("0",))]
        if rng.random() < 1 / 2:   # HUGE is a modulus of norm ~10^33 off d = 5:
            # its ring is over any residue budget, an exit 2 by design
            argv += ["--modulus", pick(LEVELS[:-1], BAD_LEVELS)]
    elif cmd == "selberg-check":
        argv += ["--max-norm-q", pick((1, 4, 8), (0, -3)),
                 "--grid", pick(("small", "full"), ("huge",))]
    elif cmd == "weil-audit":
        argv += ["--samples", pick((1, 3), (0,)), "--seed", pick(range(100))]
    elif cmd == "certify":
        argv += ["--k", pick((4, 8, 24), (3, 0, -2)), "--mu", pick(ELEMENTS, BAD_ELEMENTS),
                 "--level", pick(LEVELS, BAD_LEVELS),
                 "--max-x", pick((16, 64), (0, -5)), "--max-m", pick((0, 2), (-1,))]
        if rng.random() < 1 / 2:
            argv += ["--eta", pick(("1/2", "1/3"), ("0", "1", "2", "1/0", "x"))]
        if rng.random() < 1 / 2:
            argv += ["--residue-budget", pick((4, 60), (0,))]
    elif cmd == "thresholds":
        argv += ["--k", pick((4, 8, 12, 24), (3, 0)), "--level", pick(LEVELS, BAD_LEVELS),
                 "--eta", pick(("1/2", "1/3"), ("0", "3/2", "1/0")),
                 "--alpha", pick(("1", "(3,1)", "2"), ("-1", "x"))]
    elif cmd == "recurrence":
        argv += ["--k", pick((4, 8, 24), (5,)),
                 "--p", pick(("2", "3", "7", "(3,1)", "w"), ("0", "x")),
                 "--nu", pick(("1", "2")), "--mu", pick(("1", "(3,1)", HUGE)),
                 "--x", pick((16, 40), (-1,)), "--big-m", pick((0, 1), (-2,))]
        if rng.random() < 1 / 2:
            argv += ["--residue-budget", pick((4, 60), (0,))]
    elif cmd == "hecke-check":
        argv += ["--k", pick((8, 24), (3,)), "--level", pick(LEVELS, BAD_LEVELS),
                 "--samples", pick((1, 3), (0,)), "--seed", pick(range(100))]
    if rng.random() < 1 / 2:
        argv += ["--format", pick(("json", "csv", "table"), ("xml",))]
    config = None
    if rng.random() < 1 / 5:
        config = pick(sorted(CONFIGS), sorted(BAD_CONFIGS) + ["not json"])
    return argv, ok[0], config


def _check(argv, well_formed):
    """Run argv and assert the property; every certificate it made is audited."""
    certs = []
    certify = cli.certify_nonvanishing

    def recorded(*args, **kw):
        certs.append(certify(*args, **kw))
        return certs[-1]

    with mock.patch.object(cli, "certify_nonvanishing", recorded):
        r = CliRunner().invoke(cli.main, argv)
    where = (argv, r.output)
    assert r.exception is None or isinstance(r.exception, SystemExit), where
    assert "Traceback" not in r.output, where
    assert r.exit_code in (0, 1, 2, 3), where
    if r.exit_code == 2:
        assert any(line.startswith("Error:") for line in r.output.splitlines()), where
        if well_formed:
            assert "budget" not in r.output, where
    for cert in certs:
        assert audit_certificate(cert), where
        assert cert.verdict != "NONZERO" or cert.margin > 0, where


@pytest.mark.parametrize("cmd", COMMANDS)
@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_command_ends_in_a_verdict_or_a_one_line_error(config_files, cmd, data):
    argv, well_formed, config = data.draw(invocations(cmd))
    if config is not None:
        argv = argv + ["--config", config_files[config]]
    _check(argv, well_formed)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(FIELDS), st.sampled_from((8, 12)),
       st.sampled_from(("1", "2", "delta", "(3,1)")), st.sampled_from(("1", "w", "2")),
       st.sampled_from((0, 2)))
def test_certificates_audit(d, k, mu, level, max_m):
    # well-formed certify calls at cutoffs where many end NONZERO (k = 8 or
    # 12, mu = 1 or 2 over d = 2, 5 and 13 at X = 64, M = 2)
    _check(["certify", "--d", str(d), "--k", str(k), "--mu", mu, "--level", level,
            "--max-x", "64", "--max-m", str(max_m)], True)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(FIELDS), st.sampled_from((8, 24)),
       st.sampled_from(("1", "2", "delta", HUGE)),
       st.sampled_from(("2", "3", "w", "(3,1)", "1+2*w", "5", HUGE)),
       st.sampled_from((0, 2)))
def test_a_level_as_an_element_and_as_its_hnf_certifies_alike(d, k, mu, level, max_m):
    # the class representatives depend on the level's ideal, not its spelling;
    # the oracle's HNF makes the triple
    x = ideal_from_elements([cli.parse_element(make_field(d), level)])
    args = ["certify", "--d", str(d), "--k", str(k), "--mu", mu, "--max-x", "64",
            "--max-m", str(max_m), "--level"]
    as_element = CliRunner().invoke(cli.main, args + [level])
    as_hnf = CliRunner().invoke(cli.main, args + [f"{x.a},{x.b},{x.c}"])
    assert as_hnf.exception is None or isinstance(as_hnf.exception, SystemExit)
    assert (as_hnf.exit_code, as_hnf.output) == (as_element.exit_code, as_element.output)
