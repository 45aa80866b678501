"""String-keyed registry of execution engines.

The registry decouples consumers (CLI flags, sweep configuration files,
cached run records) from adapter classes: an engine is requested by name,

>>> from repro.engine import create_engine
>>> engine = create_engine("analytical")
>>> sorted(create_engine("cycle").fingerprint())  # doctest: +SKIP

and new engines — further baselines, alternative simulators — are added with
one :func:`register_engine` call.  The built-in engines are listed by name
in :data:`DEFAULT_ENGINES`, so listing them (``repro engines``, the CLI's
``--engine`` choices) imports no adapter; :mod:`repro.engine.adapters`
loads on the first :func:`create_engine` of a built-in name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Tuple

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only; the base imports numpy
    from repro.engine.base import Engine

EngineFactory = Callable[..., "Engine"]

#: the built-in engines: registry name -> factory in repro.engine.adapters
DEFAULT_ENGINES: Dict[str, str] = {
    "analytical": "_make_analytical",
    "analytical-detailed": "_make_analytical_detailed",
    "analytical-batch": "_make_analytical_batch",
    "analytical-batch-detailed": "_make_analytical_batch_detailed",
    "analytical-mapped": "_make_analytical_mapped",
    "cycle": "_make_cycle",
    "cycle-scalar": "_make_cycle_scalar",
    "functional": "_make_functional",
    "functional-vectorized": "_make_functional_vectorized",
    "baseline-chain-nn": "_make_baseline_chain_nn",
    "baseline-eyeriss": "_make_baseline_eyeriss",
    "baseline-dadiannao": "_make_baseline_dadiannao",
}

#: factories resolved so far: built-ins already created plus every
#: :func:`register_engine` registration
_FACTORIES: Dict[str, EngineFactory] = {}


def register_engine(name: str, factory: EngineFactory | None = None):
    """Register ``factory`` under ``name``; usable as a decorator.

    >>> @register_engine("my-engine")           # doctest: +SKIP
    ... class MyEngine(Engine): ...
    """
    if not name:
        raise ConfigurationError("engine name must be non-empty")

    def _register(target: EngineFactory) -> EngineFactory:
        if engine_registered(name):
            raise ConfigurationError(f"engine {name!r} is already registered")
        _FACTORIES[name] = target
        return target

    if factory is not None:
        return _register(factory)
    return _register


def unregister_engine(name: str) -> None:
    """Remove a :func:`register_engine` registration (primarily for tests);
    the built-in engines always stay available."""
    if name not in DEFAULT_ENGINES:
        _FACTORIES.pop(name, None)


def engine_registered(name: str) -> bool:
    """True when ``name`` resolves to a registered factory."""
    return name in DEFAULT_ENGINES or name in _FACTORIES


def available_engines() -> Tuple[str, ...]:
    """Sorted names of every registered engine."""
    return tuple(sorted(DEFAULT_ENGINES.keys() | _FACTORIES.keys()))


def _factory(name: str) -> EngineFactory:
    factory = _FACTORIES.get(name)
    if factory is None:
        if name not in DEFAULT_ENGINES:
            raise ConfigurationError(
                f"unknown engine {name!r}; available: "
                f"{', '.join(available_engines())}")
        from repro.engine import adapters

        factory = _FACTORIES[name] = getattr(adapters, DEFAULT_ENGINES[name])
    return factory


def create_engine(name: str, **kwargs) -> Engine:
    """Instantiate the engine registered under ``name``.

    Keyword arguments are forwarded to the factory, so engine-specific knobs
    (``mode``, ``backend``, ``seed``, ...) stay reachable through the string
    interface.
    """
    from repro.engine.base import Engine

    engine = _factory(name)(**kwargs)
    if not isinstance(engine, Engine):
        raise ConfigurationError(
            f"factory for engine {name!r} returned {type(engine).__name__}, "
            "expected an Engine"
        )
    return engine
