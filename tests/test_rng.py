import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from em2gm.rng import derive_seed, make_generator, open_uniforms, standard_normals


def test_same_seed_reproduces_stream():
    a = open_uniforms(make_generator(7), 100)
    b = open_uniforms(make_generator(7), 100)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    a = open_uniforms(make_generator(7), 100)
    b = open_uniforms(make_generator(8), 100)
    assert np.any(a != b)


def test_open_uniforms_strictly_inside_unit_interval():
    u = open_uniforms(make_generator(0), 100_000)
    assert 0.0 < u.min() and u.max() < 1.0


def test_open_uniforms_clamps_the_top_value_below_one():
    # random() values k * 2**-53 for k = 0, 2**52, 2**53 - 2 and 2**53 - 1
    class Top:
        def random(self, shape):
            return np.array([0, 2**52, 2**53 - 2, 2**53 - 1]) * 2.0 ** -53

    got = open_uniforms(Top(), 4)
    assert got.tolist() == [2.0 ** -54, 0.5, 1.0 - 2.0 ** -52, 1.0 - 2.0 ** -53]
    assert np.all(np.isfinite(ndtri(got)))


def test_open_uniforms_shape():
    assert open_uniforms(make_generator(1), (3, 4)).shape == (3, 4)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, 40), min_size=1, max_size=3),
       st.integers(0, 40))
def test_open_uniforms_is_the_integer_recipe(seed, shape, split):
    # rng.random + 2**-54 gives the bits of (k + 0.5) * 2**-53 with k a
    # 53-bit integer, and a draw in two row chunks continues one stream
    k = make_generator(seed).integers(0, 1 << 53, size=shape, dtype=np.int64)
    want = ((k + 0.5) * 2.0 ** -53).tobytes()
    assert open_uniforms(make_generator(seed), tuple(shape)).tobytes() == want
    split = min(split, shape[0])
    rng = make_generator(seed)
    head = open_uniforms(rng, (split, *shape[1:]))
    tail = open_uniforms(rng, (shape[0] - split, *shape[1:]))
    assert np.concatenate([head, tail]).tobytes() == want


def test_open_uniforms_rounds_the_half_like_the_integer_recipe():
    # the top integers k >= 2**52 round k + 0.5 to even; random() + 2**-54
    # must round the same way, to 0.5 at k = 2**52 and to 1.0 at the top
    k = np.array([0, 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1], dtype=np.int64)
    got = k * 2.0 ** -53
    got += 2.0 ** -54
    assert got.tobytes() == ((k + 0.5) * 2.0 ** -53).tobytes()
    assert got[3] == 0.5 and got[-2] < 1.0 == got[-1]


def test_standard_normals_moments():
    z = standard_normals(make_generator(3), 200_000)
    assert abs(float(z.mean())) < 0.01
    assert abs(float(z.std()) - 1.0) < 0.01


def test_derive_seed_deterministic():
    assert derive_seed(123, 4, 5) == derive_seed(123, 4, 5)


def test_derive_seed_separates_paths():
    seeds = {
        derive_seed(9),
        derive_seed(9, 0),
        derive_seed(9, 1),
        derive_seed(9, 0, 0),
        derive_seed(9, 0, 1),
        derive_seed(9, 1, 0),
        derive_seed(10, 0, 0),
    }
    assert len(seeds) == 7


def test_derive_seed_fits_uint64():
    s = derive_seed(2**63, 12, 34)
    assert isinstance(s, int)
    assert 0 <= s < 2**64


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 5000), st.integers(0, 3), st.integers(1, 40))
def test_a_positioned_generator_continues_the_stream(seed, quads, rest, count):
    # every skip mod 4: Philox advances by whole counters of four draws and
    # the generator draws and drops the rest
    skip = 4 * quads + rest
    whole = make_generator(seed).random(skip + count)
    assert make_generator(seed, skip).random(count).tobytes() == whole[skip:].tobytes()


def test_a_positioned_generator_matches_one_draw_at_small_offsets():
    whole = make_generator(7).random(450)
    for skip in range(404):
        assert make_generator(7, skip).random(46).tobytes() == whole[skip:skip + 46].tobytes()
