"""settraj: masked set-attention models for multi-agent trajectory
forecasting, imputation, inference and per-frame game-state classification,
built on a small numpy reverse-mode autodiff core."""

from importlib import import_module

__version__ = "0.1.0"

# Exports load on first use, so importing ``settraj.cli`` runs its BLAS
# thread pin before anything imports numpy.
_EXPORTS = {
    "errors": ("ConfigError", "DataError", "EmptyMaskError", "NumericsError",
               "ShapeError", "TaskViolationError"),
    "model": ("ModelConfig", "count_parameters", "forward", "init_params"),
    "harness": ("Checkpoint", "TaskSpec", "TrainConfig", "evaluate", "train"),
}
_MODULE = {name: mod for mod, names in _EXPORTS.items() for name in names}
__all__ = [*_MODULE, "__version__"]


def __getattr__(name):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE[name]}"), name)
