"""Every option of every leaf command is read.

For each option of the twelve leaf commands of ``cli.main`` the sweep runs
a base invocation and one with another valid value of that option.  The
stdout must change, or the command must exit 2 with a message that names
the option: an option whose new value leaves stdout alone and is not
refused would be silently misread.  ``EXEMPT`` lists the options that no
base can show, with the reason.
"""

import json

import click
import pytest
from click.testing import CliRunner

from supergaudin.cli import main


def _path(*waypoints):
    """A --path or --loop of real waypoints."""
    return json.dumps([[[x, 0] for x in wp] for wp in waypoints])


W = '{"level":"0","coeffs":[[1,1],[2,1]]}'  # e(1/2) + e(1)
# e(-1) + e(1): singular once p = 1, and the central shift reads p and q
WC = '{"level":"0","coeffs":[[-2,1],[2,1]]}'
# e(1/2) + e(3/2): off the index set, and refused, below n = 2
WN = '{"level":"0","coeffs":[[1,1],[3,1]]}'
POINTS = {2: "0,1", 3: "0,1,3"}
PATHS = {2: _path((0, 1), (0, 2)), 3: _path((0, 1, 3), (0, 2, 3))}
# z_1 circles z_2 = 1 once, counterclockwise
CIRCLE = ((0, 0), (1, -1), (2, 0), (1, 1), (0, 0))
LOOPS = {ell: json.dumps([[[x, y]] + [[z, 0] for z in (1, 3)[: ell - 1]] for x, y in CIRCLE]) for ell in (2, 3)}


def nat(ell, target):
    return ["--ell", str(ell), *target]


# the commands with a tensor and a target weight: (command words, what
# follows the target per number of sites, what the central base adds)
CENTRAL = ["--convention", "central", "--levels", "1,2"]
WEIGHT_COMMANDS = {
    "singular": (["singular"], lambda ell: [], []),
    "hamiltonian": (["hamiltonian"], lambda ell: ["--z", POINTS[ell]], CENTRAL),
    "spectrum": (["spectrum"], lambda ell: ["--z", POINTS[ell]], []),
    "kz solve": (["kz", "solve"], lambda ell: ["--kappa", "3", "--path", PATHS[ell]], CENTRAL + ["--psi0", "[1,2]"]),
    "kz monodromy": (["kz", "monodromy"], lambda ell: ["--kappa", "3", "--loop", LOOPS[ell]], CENTRAL),
}

# (command, option) -> [(base, value, companions)]: the variant sets the
# option to value in base (the last --lam; a value of None is a flag).
# Companions change along with it where the base would refuse the option
# alone (one --z point per factor); the sweep checks that it does.
CASES = {}


def case(command, option, base, value, **companions):
    CASES.setdefault((command, option), []).append((base, value, companions))


def flavor_cases(command, base):
    """--flavor, --q, --m, --p, --n and --k on a command that prints
    every weight, so any new index shows."""
    case(command, "--flavor", base, "classical")
    for opt in ("--q", "--p", "--m", "--n"):
        case(command, opt, base, "2")
    case(command, "--k", base + ["--flavor", "classical"], "2")


flavor_cases("module build", ["module", "build", "--kind", "natural"])
flavor_cases("tensor", ["tensor", *nat(2, [])])
case("module build", "--lam", ["module", "build", "--lam", "1"], "2")
case("module build", "--kind", ["module", "build", "--lam", "1"], "irreducible")
case("module build", "--depth", ["module", "build", "--lam", "1", "--kind", "verma"], "2")
case("tensor", "--lam", ["tensor", "--lam", "1", "--lam", "1"], "2")
case("tensor", "--ell", ["tensor", "--ell", "2"], "3")

for name, (head, tail, central) in WEIGHT_COMMANDS.items():
    mu = head + nat(2, ["--mu", "1,1"]) + tail(2)
    case(name, "--flavor", mu, "classical")
    # the classical rank is refused on the super flavor
    case(name, "--k", mu, "2")
    # --q and --p move the central shift and the raising operators
    for opt, value in (("--q", "1"), ("--p", "2")):
        case(name, opt, head + nat(2, ["--p", "1", "--weight", WC, *central]) + tail(2), value)
    # --m moves the hook weight of mu
    case(name, "--m", head + nat(3, ["--mu", "1,1,1"]) + tail(3), "2")
    case(name, "--lam", head + ["--lam", "1", "--lam", "2", "--mu", "2,1"] + tail(2), "1,1")
    # one --z point, --path or --loop waypoint per site, and mu of the new size
    companions = dict(zip(tail(3)[::2], tail(3)[1::2]), **{"--mu": "1,1,1"}) if tail(3) else {}
    case(name, "--ell", mu, "3", **companions)
    case(name, "--mu", mu, "2")
    case(name, "--weight", head + nat(2, ["--weight", W]) + tail(2), '{"level":"0","coeffs":[[2,2]]}')
for name in ("singular", "hamiltonian"):
    head, tail, _ = WEIGHT_COMMANDS[name]
    case(name, "--n", head + nat(2, ["--n", "2", "--weight", WN]) + tail(2), "1")

HAM = ["hamiltonian", *nat(2, ["--mu", "1,1", "--z", "0,1"])]
case("hamiltonian", "--kind", HAM, "cubicC")
case("hamiltonian", "--z", HAM, "0,2")
case("hamiltonian", "--restrict-singular", HAM, None)
HAM_CENTRAL = ["hamiltonian", *nat(2, ["--p", "1", "--weight", WC, *CENTRAL, "--z", "0,1"])]
# the plain convention refuses --levels by name
case("hamiltonian", "--convention", HAM_CENTRAL, "plain")
case("hamiltonian", "--levels", HAM_CENTRAL, "3,1")
SPEC = ["spectrum", *nat(3, ["--mu", "2,1", "--z", "0,1,3"])]
case("spectrum", "--kind", SPEC, "cubicC")
case("spectrum", "--z", SPEC, "0,1,4")

for name in ("duality check", "duality cubic"):
    base = name.split() + ["--lams", "2;1", "--mu", "2,1", "--z", "0,1"]
    for opt, value in (("--lams", "1,1;1"), ("--m", "2"), ("--n", "2"), ("--mu", "3"), ("--z", "0,2")):
        case(name, opt, base, value)
    # more trials would repeat the report at the given --z, so they are
    # refused by name; without --z each trial samples its own points
    case(name, "--trials", base, "2")
    case(name, "--trials", base[:-2], "2")

LAX = ["lax", "expand", *nat(2, ["--z", "0,1"])]
flavor_cases("lax", LAX)
case("lax", "--lam", ["lax", "expand", "--lam", "1", "--lam", "1", "--z", "0,1"], "2")
case("lax", "--ell", LAX, "3", **{"--z": "0,1,3"})
case("lax", "--k-power", LAX, "3")
case("lax", "--z", LAX, "0,2")

for name in ("kz solve", "kz monodromy"):
    head, tail, central = WEIGHT_COMMANDS[name]
    base = head + nat(2, ["--p", "1", "--weight", WC, *central]) + tail(2)
    case(name, "--kappa", base, "2")
    case(name, "--convention", base, "plain")
    case(name, "--levels", base, "3,1")
    case(name, "--rel-tol", base, "1e-4")
    if name == "kz solve":
        case(name, "--path", base, _path((0, 1), (0, 3)))
        case(name, "--psi0", base, "[1,0]")
    else:
        # the loop run backwards
        case(name, "--loop", base, json.dumps(json.loads(LOOPS[2])[::-1]))
# the exact residual of a flat connection is 0; --float-step measures it
# by finite differences instead
FLAT = ["kz", "flatness", *nat(2, ["--p", "1", "--weight", WC, *CENTRAL, "--z", "0,1"])]
case("kz flatness", "--float-step", FLAT, "1e-3")
case("kz flatness", "--convention", FLAT, "plain")
case("kz flatness", "--k", FLAT, "2")

VERIFY = ["verify", "all", "--checks", "central_shift"]
case("verify", "--checks", VERIFY, "truncation")
case("verify", "--seed", VERIFY, "3")

# (command, option) -> why no base can show the option in stdout
EXEMPT = {
    ("module build", "--no-cache"): "the disk cache is transparent: a hit prints the bytes a miss does",
    # the base's central_shift check reads none of them, and the report
    # does not echo them
    ("verify", "--m"): "read only by the hamiltonians, modules and duality checks",
    ("verify", "--n"): "read only by the hamiltonians, modules and duality checks",
    ("verify", "--ell"): "read only by the hamiltonians and cyclic checks",
    ("verify", "--tol"): "read only by the kz check",
}
# the exact curvature of the KZ connection is 0 on every valid system
for opt in ("--flavor", "--q", "--m", "--p", "--n", "--lam", "--ell", "--mu", "--weight", "--kappa", "--levels", "--z"):
    EXEMPT["kz flatness", opt] = "the residual is 0 on every valid system; kz monodromy reads these options"
# the odd index n - 1/2 comes last in the order, so a weight space that a
# smaller n holds keeps its singular vectors and its Gaudin blocks
EXEMPT["spectrum", "--n"] = "no singular space a smaller n holds changes; singular shows --n where only n = 2 holds"
for name in ("kz solve", "kz monodromy"):
    EXEMPT[name, "--n"] = "no weight space a smaller n holds changes, and KZ refuses a weight the tensor lacks"


def _leaf_options():
    """(command, option) for every option of every leaf command."""
    out = set()

    def walk(cmd, words):
        if isinstance(cmd, click.Group):
            for name, sub in cmd.commands.items():
                walk(sub, words + [name])
            return
        name = " ".join(words) if words[0] in ("module", "duality", "kz") else words[0]
        out.update((name, p.opts[0]) for p in cmd.params if isinstance(p, click.Option))

    walk(main, [])
    return out


def test_the_sweep_covers_every_option_of_the_twelve_leaf_commands():
    options = _leaf_options()
    assert len({command for command, _ in options}) == 12
    assert not set(CASES) & set(EXEMPT)
    assert set(CASES) | set(EXEMPT) == options


def _set(args, option, value):
    """args with the (last) value of option replaced, or the option added."""
    args = list(args)
    if value is None:
        return args + [option]
    if option in args:
        at = len(args) - 1 - args[::-1].index(option)
        args[at + 1] = value
        return args
    return args + [option, value]


def _run(args, tmp_path):
    return CliRunner().invoke(main, ["--json", "--cache-dir", str(tmp_path)] + args)


@pytest.mark.parametrize("command, option", sorted(CASES), ids=[" ".join(k) for k in sorted(CASES)])
def test_every_option_changes_stdout_or_is_refused_by_name(command, option, tmp_path):
    for base, value, companions in CASES[command, option]:
        before = _run(base, tmp_path)
        assert before.exit_code in (0, 1), before.output
        variant = _set(base, option, value)
        along = base
        for other, v in companions.items():
            variant, along = _set(variant, other, v), _set(along, other, v)
        if companions:
            # the companions alone are refused, so the option is what counts
            assert _run(along, tmp_path).exit_code == 2
        after = _run(variant, tmp_path)
        if after.exit_code == 2:
            assert option in after.output, (variant, after.output)
        else:
            assert after.exit_code in (0, 1), after.output
            assert after.stdout != before.stdout, variant
