"""Deterministic train-or-load of the paper's workload models.

Models are trained with quantization-aware training (STE weight fake-quant
plus ActQuant activation quantization, per the paper's Sec. 4.2) and cached
as one ``zoo`` artifact of the shared :class:`~repro.plan.cache.
PlanArtifactCache`, keyed by the full workload specification.  The
artifact holds everything a run needs from the workload: the trained
state dict, the clean accuracy and the generated dataset it was trained
on, so a warm load neither trains nor regenerates data.  A truncated or
corrupt artifact is quarantined by the cache; the dataset is regenerated
and the model retrained, bitwise-equal, because both are seeded by the
spec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data import (
    DataSplit,
    synthetic_cifar,
    synthetic_digits,
    synthetic_tiny_imagenet,
)
from repro.nn import (
    SGD,
    TrainConfig,
    Trainer,
    cosine_schedule,
    evaluate_accuracy,
)
from repro.nn.models import convnet, lenet, resnet18
from repro.nn.quant import attach_weight_quantizers
from repro.plan.cache import PlanArtifactCache
from repro.utils.rng import RngStream

__all__ = ["ZooModel", "load_workload", "build_model", "build_data"]


@dataclass
class ZooModel:
    """A trained workload ready for mapping experiments.

    Attributes
    ----------
    model:
        The trained network, in eval mode, QAT weight quantizers attached.
    data:
        The :class:`~repro.data.DataSplit` it was trained on.
    clean_accuracy:
        Test accuracy with (fake-)quantized weights, no device noise —
        the paper's "accuracy without the impact of device variation".
    spec:
        The :class:`~repro.experiments.config.WorkloadSpec`.
    """

    model: object
    data: object
    clean_accuracy: float
    spec: object


def build_data(spec, rng):
    """Generate the dataset for a workload spec."""
    if spec.dataset == "digits":
        return synthetic_digits(
            n_train=spec.n_train, n_test=spec.n_test, rng=rng,
            size=spec.image_size,
        )
    if spec.dataset == "cifar":
        return synthetic_cifar(
            n_train=spec.n_train, n_test=spec.n_test, rng=rng,
            size=spec.image_size, num_classes=spec.num_classes,
        )
    if spec.dataset == "tiny":
        return synthetic_tiny_imagenet(
            n_train=spec.n_train, n_test=spec.n_test, rng=rng,
            size=spec.image_size, num_classes=spec.num_classes,
        )
    raise KeyError(f"unknown dataset {spec.dataset!r}")


def build_model(spec, rng):
    """Construct the (untrained) network for a workload spec."""
    if spec.arch == "lenet":
        return lenet(
            rng, num_classes=spec.num_classes, act_bits=spec.act_bits,
            image_size=spec.image_size,
        )
    if spec.arch == "convnet":
        return convnet(
            rng, num_classes=spec.num_classes, width_mult=spec.width_mult,
            image_size=spec.image_size, act_bits=spec.act_bits,
        )
    if spec.arch == "resnet18":
        return resnet18(
            rng, num_classes=spec.num_classes, width_mult=spec.width_mult,
            act_bits=spec.act_bits,
        )
    raise KeyError(f"unknown arch {spec.arch!r}")


#: Array fields of :class:`~repro.data.DataSplit` stored in the artifact.
_DATA_ARRAYS = ("train_x", "train_y", "test_x", "test_y")


def _split_to_arrays(data):
    """``name -> array`` entries of a split for the ``zoo`` artifact."""
    arrays = {name: getattr(data, name) for name in _DATA_ARRAYS}
    arrays["num_classes"] = np.asarray(data.num_classes, dtype=np.int64)
    arrays["name"] = np.asarray(data.name)
    return arrays


def _split_from_arrays(state):
    """Pop a split's entries off a loaded ``zoo`` artifact dict."""
    arrays = {name: state.pop(name) for name in _DATA_ARRAYS}
    return DataSplit(
        num_classes=int(state.pop("num_classes")),
        name=str(state.pop("name")),
        **arrays,
    )


def load_workload(spec, use_cache=True, log=False):
    """Train (or load from cache) the model and dataset for a workload spec.

    Deterministic: the spec's seed drives data generation, weight init,
    and batch shuffling through independent named substreams, so cache
    hits and fresh training produce the same artifact.  The dataset is
    generated only on a miss, just before training.

    Returns
    -------
    ZooModel
    """
    root = RngStream(spec.seed).child("zoo", spec.key)
    model = build_model(spec, root.child("model"))

    # Memory-less: the zoo model is loaded once per process, and the
    # disk tier resolves through ``REPRO_CACHE_DIR`` at call time.
    cache = PlanArtifactCache(memory=False) if use_cache else None
    # The contents marker keys the model+data layout apart from older
    # weight-only entries, which are never read.
    cache_cfg = {**spec.cache_config(), "contents": "model+data"}
    state = cache.get("zoo", cache_cfg) if cache is not None else None

    if state is not None:
        state = dict(state)
        clean_accuracy = float(state.pop("clean_accuracy"))
        data = _split_from_arrays(state)
        model.load_state_dict(state)
        # QAT quantizers are not part of the state dict; re-attach.
        attach_weight_quantizers(model, spec.weight_bits)
        model.eval()
        return ZooModel(model=model, data=data,
                        clean_accuracy=clean_accuracy, spec=spec)

    data = build_data(spec, root.child("data"))
    optimizer = SGD(model.parameters(), lr=spec.lr, momentum=0.9,
                    weight_decay=1e-4)
    trainer = Trainer(
        optimizer,
        schedule=cosine_schedule(spec.lr, spec.epochs),
        rng=root.child("train"),
    )
    trainer.fit(
        model, data.train_x, data.train_y,
        config=TrainConfig(
            epochs=spec.epochs, batch_size=spec.batch_size,
            weight_bits=spec.weight_bits,
            log_every=1 if log else 0,
        ),
    )
    model.eval()
    clean_accuracy = evaluate_accuracy(model, data.test_x, data.test_y)
    if cache is not None:
        cache.put("zoo", cache_cfg, {
            **model.state_dict(),
            **_split_to_arrays(data),
            "clean_accuracy": np.asarray(clean_accuracy, dtype=np.float64),
        })
    return ZooModel(model=model, data=data, clean_accuracy=clean_accuracy,
                    spec=spec)
