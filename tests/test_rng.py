from ceq.core import Tag
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
