"""Seeded draws pinned bit for bit: every sampler's first draws at fixed seeds.

A change to a box, a guard, a comparison or the order of the rng calls
re-seeds every lattice, root set and report downstream; these pins make such
a change show here first.  The strings are ``repr`` of the drawn complex
numbers, in draw order.
"""

import numpy as np
import pytest

from sixvertex import dwbc, verify
from sixvertex import vertex_model as vm
from sixvertex.errors import DegenerateParametersError

from conftest import RATIONAL, TRIG

REGIMES = {"rational": RATIONAL, "trigonometric": TRIG}

# (sampler, family[, size]) -> repr of each drawn point, in draw order.
PINNED = {
    ('lattice', 'rational', 4): (
        '(-1.243052498569127-1.2176140732788023j)',
        '(-0.7895684802117009-0.2006191792905785j)',
        '(0.9038233956191908-0.06284610557749781j)',
        '(0.24648610819310335-1.0207832560887642j)',
    ),
    ('lattice', 'rational', 9): (
        '(1.131974330072651+0.7096082818349267j)',
        '(-0.151385299194974+1.3809942627538998j)',
        '(0.9480180877404418-1.377463897073961j)',
        '(0.42791783224987356-0.7426018351428738j)',
        '(0.8418503486211826-0.4261289716215253j)',
        '(0.265595130458685+0.2217460835026841j)',
        '(0.5494471735437543-0.1343615583040223j)',
        '(1.3280219652595422+1.327588972379202j)',
        '(-0.20912020433125011-0.9275890255728847j)',
    ),
    ('spectral', 'rational'): (
        '(0.04597668312642611-0.6425958597355752j)',
        '(-1.3382078928550307-0.3498933576434453j)',
        '(-0.27458038374000404-1.3641744182926645j)',
    ),
    ('avoid', 'rational'): (
        '(-1.3382078928550307-0.3498933576434453j)',
        '(-0.27458038374000404-1.3641744182926645j)',
        '(-1.3537268678184957+1.4975283451952142j)',
    ),
    ('dwbc', 'rational', 2): (
        '(-1.114289391692401-0.0021664126796552274j)',
        '(0.3044950728700724-1.4139329748841662j)',
        '(-1.0562217462676322+1.2846330688811083j)',
        '(-1.2887382715374094-1.110678151802106j)',
    ),
    ('dwbc', 'rational', 5): (
        '(-1.400775937867714-0.897693137516342j)',
        '(-0.4627563787330815-0.09327550973254617j)',
        '(1.2184030166866817+0.5920832662088933j)',
        '(-0.4820380177726642-1.4493683547075065j)',
        '(-1.020528917685057+1.4893076266190115j)',
        '(-0.12085206032044615+0.5731197489562776j)',
        '(-1.335995815794486-1.3978491631588872j)',
        '(1.0376703193351724+0.2636458220005815j)',
        '(-0.573870770386314-0.5478700851559877j)',
        '(-1.2322882367467538-0.9819911966742737j)',
    ),
    ('pair', 'rational'): (
        '(0.32487698294901546-0.7554844717589826j)',
        '(-0.6543413974584986-0.3712085617212204j)',
        '(-0.587715050479688-0.8788277269579923j)',
        '(-0.26635488880974+0.35346160748584277j)',
    ),
    ('lattice', 'trigonometric', 4): (
        '(-0.8287016657127513-0.8117427155192016j)',
        '(-0.5263789868078006-0.1337461195270524j)',
        '(0.6025489304127938-0.04189740371833195j)',
        '(0.16432407212873557-0.6805221707258429j)',
    ),
    ('lattice', 'trigonometric', 9): (
        '(-0.4572668617832212+0.4303993799359278j)',
        '(0.34667829441398834-0.9932368335847508j)',
        '(0.8842733563304015-0.7421880877304887j)',
        '(0.33772264565636223-0.02154139865073068j)',
        '(0.9246364410737182-0.31702082815115573j)',
        '(-0.08592546774056609+0.5298019482957013j)',
        '(-0.9044038556437768-0.15076953372395185j)',
        '(-0.9974961985186384-0.6619831164686036j)',
        '(-0.6090297775851954+0.9597611121940204j)',
    ),
    ('spectral', 'trigonometric'): (
        '(0.030651122084284-0.4283972398237168j)',
        '(-0.8921385952366871-0.23326223842896354j)',
        '(-0.1830535891600027-0.9094496121951097j)',
    ),
    ('avoid', 'trigonometric'): (
        '(-0.8921385952366871-0.23326223842896354j)',
        '(-0.1830535891600027-0.9094496121951097j)',
        '(-0.9024845785456639+0.9983522301301428j)',
    ),
    ('dwbc', 'trigonometric', 2): (
        '(-0.7428595944616008-0.0014442751197700776j)',
        '(0.20299671524671492-0.9426219832561109j)',
        '(-0.7041478308450881+0.856422045920739j)',
        '(-0.8591588476916063-0.740452101201404j)',
    ),
    ('dwbc', 'trigonometric', 5): (
        '(-0.4837182962908233+0.956602274628434j)',
        '(0.8820119893028697-0.31862764828698187j)',
        '(-0.12799699281533794-0.37136074259229424j)',
        '(0.49301783461082116-0.9199737948936195j)',
        '(-0.8651221338159478-0.19192482506318753j)',
        '(-0.509811897771872+0.6904499634024537j)',
        '(0.48361419295058017+0.09158796504591349j)',
        '(0.3229510286270012+0.38455821336984775j)',
        '(0.5621096467966842+0.8550051942313655j)',
        '(-0.7005296524245341+0.252260315490763j)',
    ),
    ('pair', 'trigonometric'): (
        '(-0.3763370959790291-0.1533471020548487j)',
        '(0.6554051876408835-0.18160172726167745j)',
        '(0.09918737534611899-0.9448817735138633j)',
        '(0.5070262173496132+0.07628662643855644j)',
    ),
}


def reprs(points):
    return tuple(repr(x) for x in points)


@pytest.mark.parametrize("family", REGIMES)
@pytest.mark.parametrize("L", [4, 9])
def test_random_lattice_draws_are_pinned(family, L):
    lattice = vm.random_lattice(L, REGIMES[family], np.random.default_rng(3))
    assert reprs(lattice.xi) == PINNED["lattice", family, L]


def test_random_lattice_exhaustion_message_is_pinned():
    with pytest.raises(DegenerateParametersError) as info:
        vm.random_lattice(9, TRIG, np.random.default_rng(10))
    assert str(info.value) == "could not sample a generic lattice after 2000 tries"


@pytest.mark.parametrize("family", REGIMES)
def test_random_spectral_point_draws_are_pinned(family):
    regime = REGIMES[family]
    lattice = vm.random_lattice(4, regime, np.random.default_rng(1))
    rng = np.random.default_rng(5)
    points = [vm.random_spectral_point(lattice, regime, rng) for _ in range(3)]
    assert reprs(points) == PINNED["spectral", family]
    # Avoiding the first point rejects it: the draws after it come out in order.
    rng = np.random.default_rng(5)
    avoid = (points[0],)
    points = [vm.random_spectral_point(lattice, regime, rng, avoid=avoid) for _ in range(3)]
    assert reprs(points) == PINNED["avoid", family]


@pytest.mark.parametrize("family", REGIMES)
@pytest.mark.parametrize("m", [2, 5])
def test_dwbc_random_input_draws_are_pinned(family, m):
    inp = dwbc.random_input(m, REGIMES[family], np.random.default_rng(11))
    assert reprs(inp.mu + inp.q) == PINNED["dwbc", family, m]


@pytest.mark.parametrize("family, seed", [("rational", 88), ("trigonometric", 1)])
def test_verify_pair_draws_are_pinned(family, seed):
    # At these seeds the first pair drawn is rejected by the guard.
    rng = np.random.default_rng(seed)
    pairs = [verify._draw_pair(rng, REGIMES[family]) for _ in range(2)]
    assert reprs(t for pair in pairs for t in pair) == PINNED["pair", family]


def test_verify_pair_draw_gives_up_when_no_pair_can_pass(monkeypatch):
    monkeypatch.setattr(verify, "PAIR_GUARD", 1e9)
    with pytest.raises(DegenerateParametersError, match="after 2000 tries"):
        verify._draw_pair(np.random.default_rng(0), RATIONAL)
