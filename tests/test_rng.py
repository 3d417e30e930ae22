"""Unit tests for deterministic named random streams."""

import pytest

from repro.sim.rng import (
    SPLITMIX_GAMMA,
    CounterRandom,
    RandomStreams,
    derive_key,
    derive_seed,
    splitmix64,
)

M64 = (1 << 64) - 1


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a") == derive_seed(42, "a")

    def test_name_sensitivity(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_seed_sensitivity(self):
        assert derive_seed(42, "a") != derive_seed(43, "a")

    def test_64_bit_range(self):
        s = derive_seed(1, "x")
        assert 0 <= s < 2**64


class TestRandomStreams:
    def test_same_name_returns_same_stream(self):
        streams = RandomStreams(7)
        assert streams.stream("mobility/1") is streams.stream("mobility/1")

    def test_streams_reproducible_across_factories(self):
        a = RandomStreams(7).stream("x")
        b = RandomStreams(7).stream("x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_give_different_sequences(self):
        streams = RandomStreams(7)
        a = [streams.stream("a").random() for _ in range(10)]
        b = [streams.stream("b").random() for _ in range(10)]
        assert a != b

    def test_new_stream_does_not_perturb_existing(self):
        s1 = RandomStreams(7)
        seq_before = [s1.stream("main").random() for _ in range(5)]
        s2 = RandomStreams(7)
        s2.stream("other")  # extra consumer
        seq_after = [s2.stream("main").random() for _ in range(5)]
        assert seq_before == seq_after

    def test_spawn_namespaces(self):
        base = RandomStreams(7)
        t0 = base.spawn("trial/0")
        t1 = base.spawn("trial/1")
        assert t0.seed != t1.seed
        a = [t0.stream("x").random() for _ in range(5)]
        b = [t1.stream("x").random() for _ in range(5)]
        assert a != b

    def test_spawn_deterministic(self):
        assert RandomStreams(7).spawn("t").seed == RandomStreams(7).spawn("t").seed

    def test_seed_property(self):
        assert RandomStreams(99).seed == 99


class TestDeriveKey:
    def test_derive_key_decorrelates_indices(self):
        keys = {derive_key(1, i) for i in range(1000)}
        assert len(keys) == 1000  # no collisions across nodes


class TestCounterRandom:
    """The counter-stream convention the fault schedule's draws rest on."""

    @staticmethod
    def draw(key: int, k: int) -> float:
        return (splitmix64((key + k * SPLITMIX_GAMMA) & M64) >> 11) * 2.0**-53

    def test_splitmix64_matches_reference_sequence(self):
        # The first two outputs of the reference splitmix64 generator
        # seeded with 0 (state advances by the Weyl constant, then mixes).
        assert splitmix64(SPLITMIX_GAMMA) == 0xE220A8397B1DCDAF
        assert splitmix64(2 * SPLITMIX_GAMMA) == 0x6E789E6AA1B965F4

    @pytest.mark.parametrize("key", [0, 1, derive_key(7, 3), M64])
    def test_draw_k_is_pure_counter_function(self, key):
        rng = CounterRandom(key)
        assert [rng.random() for _ in range(20)] == [
            self.draw(key, k) for k in range(20)
        ]

    def test_counter_counts_draws(self):
        rng = CounterRandom(5)
        assert rng.counter == 0
        rng.random()
        assert rng.counter == 1
        rng.uniform(2.0, 3.0)
        assert rng.counter == 2

    def test_uniform_is_affine_map_of_the_next_draw(self):
        key = derive_key(11, 0)
        rng = CounterRandom(key)
        for k, (a, b) in enumerate([(0.0, 1.0), (2.0, 5.0), (-3.0, 4.5), (7.0, 7.0)]):
            assert rng.uniform(a, b) == a + (b - a) * self.draw(key, k)

    def test_keys_are_masked_to_64_bits(self):
        key = derive_key(3, 9)
        wide = CounterRandom(key + (5 << 64))
        narrow = CounterRandom(key)
        assert [wide.random() for _ in range(10)] == [narrow.random() for _ in range(10)]

    def test_values_in_unit_interval(self):
        for key in (0, 1, M64, derive_key(1, 0)):
            rng = CounterRandom(key)
            for _ in range(1000):
                u = rng.random()
                assert 0.0 <= u < 1.0
