from ceq.core import Tag
from ceq.field import field
from ceq.oracle import GenSpec, Planted, generate
from ceq.rng import derive, stream


def test_derive_and_stream_are_pinned():
    # every generated file descends from these values, so they move only
    # when a change means them to; each label is derived twice, so that a
    # cached tag must give what the first derivation computed. 1 and 1.0
    # are equal as dict keys but not as labels (an int tag, a string tag)
    labels = (0, -5, 2**100, 1, 1.0, "gen", Tag.SPCE.value)
    want = [
        5966426460957136894, 10538902126369801275, 15104782647304793900, 11396027877037934308,
        9009111795910858679, 214492076715339324, 4961579253981081855,
    ]
    for _ in range(2):
        assert [derive(13, label) for label in labels] == want
        assert derive(13, "gen", Tag.LCE.value, "no", 2, 4, 5, 1) == 7682015092833366658
        rng = stream(29, "gen", Tag.PCE.value, 0, -1, 2**100)
        assert [rng.getrandbits(64), rng.getrandbits(64), rng.randrange(7)] == [
            11792746981545398113, 14394688647793490850, 0,
        ]


def test_seeds_are_read_modulo_2_to_the_64():
    # derive masks the seed, so these pairs alias: the same draws and the
    # same generated pair, as `gen --seed -1` and `--seed 2^64 - 1` write
    # the same files
    def draws(seed):
        rng = stream(seed, "gen", 3)
        return [rng.getrandbits(64) for _ in range(4)]

    def generated(seed):
        return generate(GenSpec(field(3), 2, 4, Tag.LCE, Planted.YES, seed))

    for a, b in ((-1, 2**64 - 1), (1, 2**64 + 1)):
        assert derive(a, "gen") == derive(b, "gen")
        assert draws(a) == draws(b)
        assert generated(a) == generated(b)
    assert draws(0) != draws(1)
    assert generated(0) != generated(1)
