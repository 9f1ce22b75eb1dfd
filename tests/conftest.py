import time
import tracemalloc

import numpy as np
import pytest

from audet import tensor as T
from audet.data import SynthConfig, generate_synthetic
from audet.model import ModelConfig, ModelParams
from audet.training import TrainConfig, train

# Small-but-complete architecture for unit tests: every layer type of the
# default model, sized so one forward pass costs well under a millisecond.
TINY_MODEL = ModelConfig(
    image_size=24,
    conv_spec=((3, 5, 2), (4, 3, 2), (4, 3, 1)),
    static_gru_hidden=8,
    dynamic_hidden=(10, 8),
    fusion_out=8,
    au_embedding_dim=8,
)


def weighted_sum(a, weights=1.0):
    """Scalar node sum(weights * a) for reducing an op's output in a test.

    The engine ships no reduction of its own: the model's one scalar is
    the loss.  ``weights`` is a number or an array of a's shape.
    """
    w = np.broadcast_to(np.asarray(weights, dtype=a.value.dtype), a.value.shape)

    def push(g):
        T._accum(a, g * w)

    return T.Tensor(np.asarray((a.value * w).sum()), (a,), push)


def probabilities(logits):
    """B x 8 float64 activation probabilities of a B x 8 x 2 logits node,
    computed as scoring computes them."""
    gap = logits.value.astype(np.float64)
    return T.logistic(gap[..., 1] - gap[..., 0])


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes that Python and numpy held while it ran."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def tiny_corpus():
    return generate_synthetic(
        SynthConfig(videos=4, frames_per_video=10, seed=3, image_size=24)
    )


@pytest.fixture(scope="session")
def tiny_params():
    params = ModelParams.init(TINY_MODEL, seed=5, dtype=np.float64)
    return params


@pytest.fixture(scope="session")
def default_corpus():
    """The stock synthetic corpus: 50 videos of 60 frames, seed 7."""
    return generate_synthetic(SynthConfig())


@pytest.fixture(scope="session")
def e2e_result(default_corpus):
    """One full default training run, shared by the acceptance tests.

    Returns (result, wall_seconds) so the runtime budget can be checked.
    """
    start = time.perf_counter()
    result = train(default_corpus, ModelConfig(), TrainConfig())
    return result, time.perf_counter() - start
