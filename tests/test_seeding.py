import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphon_motifs import (
    ExperimentConfig,
    SparsitySchedule,
    named_graphon,
    named_motif,
)
from graphon_motifs import experiments
from graphon_motifs.seeding import (
    SEED_BLOCK,
    _child_words,
    _seed_block,
    child_rng,
    lane_uniforms,
    replicate_seed,
)


SRC = Path(__file__).resolve().parent.parent / "src"


def _numpy_replicate_seed(root, n, r):
    ss = np.random.SeedSequence((root, n, r))
    return int(ss.generate_state(1, np.uint64)[0])


def _numpy_state(seed, k):
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,))).state


@settings(max_examples=60, deadline=None)
@given(root=st.integers(0, 2 ** 96), n=st.integers(1, 2 ** 40),
       r=st.integers(0, 2 ** 32 - 1))
@example(root=0, n=1, r=SEED_BLOCK - 1)
@example(root=0, n=1, r=SEED_BLOCK)
@example(root=2 ** 32 + 7, n=2 ** 32, r=SEED_BLOCK - 1)
@example(root=2 ** 64 - 1, n=2 ** 32 + 1, r=SEED_BLOCK)
@example(root=2 ** 64 - 1, n=1, r=2 ** 32 - 1)
@example(root=2 ** 70 + 3, n=6, r=SEED_BLOCK)
@example(root=2 ** 70 + 3, n=2 ** 64, r=SEED_BLOCK - 1)
def test_block_seeds_match_numpy_seed_sequence(root, n, r):
    # the block derivation restates numpy's SeedSequence; if numpy ever
    # changes its seeding, this fails first
    seeds, words = _seed_block(root, n, r // SEED_BLOCK)
    assert seeds.shape == (SEED_BLOCK,)
    assert words.shape == (2, SEED_BLOCK, 4)
    assert words.dtype == np.uint64 and words.flags.c_contiguous
    assert seeds[r % SEED_BLOCK] == _numpy_replicate_seed(root, n, r)
    assert seeds[0] == _numpy_replicate_seed(root, n, r - r % SEED_BLOCK)
    assert replicate_seed(root, n, r) == _numpy_replicate_seed(root, n, r)


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=8))
@example(seeds=[0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1])
def test_child_words_match_numpy(seeds):
    words = _child_words(np.array(seeds, dtype=np.uint64))
    for k in (0, 1):
        for i, seed in enumerate(seeds):
            ss = np.random.SeedSequence(seed, spawn_key=(k,))
            assert np.array_equal(words[k, i], ss.generate_state(4, np.uint64))


def _numpy_latents(seed, n):
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,)))).random(n)


@settings(max_examples=30, deadline=None)
@given(root=st.integers(0, 2 ** 96 - 1), n=st.sampled_from([1, 2, 6, 29, 30]),
       r=st.integers(0, 3 * SEED_BLOCK))
@example(root=5, n=6, r=SEED_BLOCK - 1)  # one root word, the block's edge
@example(root=5, n=1, r=SEED_BLOCK)
@example(root=2 ** 32 + 7, n=30, r=SEED_BLOCK - 1)  # two words
@example(root=2 ** 32 + 7, n=2, r=SEED_BLOCK)
@example(root=2 ** 96 - 1, n=29, r=SEED_BLOCK)  # three words
@example(root=2 ** 64, n=30, r=SEED_BLOCK - 1)
def test_lane_uniforms_match_numpy_word_for_word(root, n, r):
    # the lanes restate numpy's PCG64; if numpy ever changes its seeding or
    # output, this fails first
    lanes = lane_uniforms(root, n, r // SEED_BLOCK)
    assert lanes.shape == (SEED_BLOCK, n) and not lanes.flags.writeable
    want = _numpy_latents(_numpy_replicate_seed(root, n, r), n)
    assert np.array_equal(lanes[r % SEED_BLOCK].view(np.uint64),
                          want.view(np.uint64))


@pytest.mark.parametrize("n", [6, 8, 10, 30])
def test_every_lane_of_a_block_matches_numpy(n):
    seeds, _ = _seed_block(11, n, 2)
    lanes = lane_uniforms(11, n, 2)
    want = np.array([_numpy_latents(int(seed), n) for seed in seeds])
    assert np.array_equal(lanes.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("k", [0, 1])
def test_prefetched_generator_state_equals_numpy(k):
    seeds = [replicate_seed(77, 6, r) for r in (5, 6)]
    for r, seed in zip((5, 6), seeds):
        assert replicate_seed(77, 6, r) == seed
        ref = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,)))
        gen = child_rng(seed, k)
        assert gen.bit_generator.state == ref.state
        draws = np.random.Generator(ref).random(7)
        assert np.array_equal(gen.random(7), draws)
        gen.integers(0, 2 ** 32, dtype=np.uint32)
        np.random.Generator(ref).integers(0, 2 ** 32, dtype=np.uint32)
        assert gen.bit_generator.state == ref.state
        assert child_rng(seed, k).bit_generator.state == _numpy_state(seed, k)
    # a miss builds its generator through numpy
    assert child_rng(seeds[0], k).bit_generator.state == \
        _numpy_state(seeds[0], k)


@pytest.mark.parametrize("k", [0, 1])
def test_handed_out_generator_outlives_the_next_replicate(k):
    # every hit builds a new generator, so one handed out earlier keeps
    # drawing its own seed's stream after the thread moves on
    seed = replicate_seed(77, 6, 5)
    gen = child_rng(seed, k)
    head = gen.random(3)
    child_rng(replicate_seed(77, 6, 6), k).random(5)
    ref = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,))))
    assert np.array_equal(head, ref.random(3))
    assert np.array_equal(gen.random(7), ref.random(7))
    assert gen.bit_generator.state == ref.bit_generator.state


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy 2 loads numpy.random lazily; the package must not load it at
    # import time, where it would add to every run's start-up
    probe = ("import sys, numpy; before = 'numpy.random' in sys.modules; "
             "import graphon_motifs.cli; "
             "print(before, 'numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    before, after = out.stdout.split()
    assert after == before


def test_seed_cache_under_thread_contention():
    # more threads than cores, switching often, each walking its own range
    # of blocks: every seed and generator state must still be numpy's
    _seed_block.cache_clear()
    errors = []

    def work(t):
        prev = None
        try:
            for r in range(t * 300, t * 300 + 3 * SEED_BLOCK, 97):
                seed = replicate_seed(5, 6, r)
                for s in (seed, prev):
                    if s is None:
                        continue
                    if child_rng(s, 1).bit_generator.state != \
                            _numpy_state(s, 1):
                        errors.append((t, r, s))
                if seed != _numpy_replicate_seed(5, 6, r):
                    errors.append((t, r))
                prev = seed
        except Exception as exc:  # a worker's failure must fail the test
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(t,)) for t in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(w.is_alive() for w in workers)
    assert errors == []


def test_conditional_clt_cell_derives_no_block_for_its_latent_seed(
        monkeypatch):
    # the frozen latent seed goes through numpy: a cell of fewer than
    # SEED_BLOCK replicates derives only the block of indices 0..R-1
    handed = []
    numpy_seed = experiments._numpy_replicate_seed

    def recording(root, n, r):
        seed = numpy_seed(root, n, r)
        handed.append(((root, n, r), seed))
        return seed

    monkeypatch.setattr(experiments, "_numpy_replicate_seed", recording)
    cfg = ExperimentConfig(
        experiment_kind="conditional_clt", motif=named_motif("triangle"),
        graphon=named_graphon("W_sym"), schedule=SparsitySchedule(1.0, 0.5),
        n_values=(20,), replicates=60, seed=2718)
    _seed_block.cache_clear()
    cell = experiments._replicate_cell(cfg, 20)
    assert _seed_block.cache_info().misses == 1
    assert handed == [((2718, 20, 0xFEED0000), np.random.SeedSequence(
        (2718, 20, 0xFEED0000)).generate_state(1, np.uint64)[0])]
    assert cell.seed.tolist() == [_numpy_replicate_seed(2718, 20, r)
                                  for r in range(60)]
