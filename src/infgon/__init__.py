"""Exact arc and quiver calculus for infinity-gon triangulations with
limit objects.

The package models a translation quiver of finite indecomposables plus
one limit ("Prufer") object per integer slot, the equivalent picture of
arcs between integers (with arcs to infinity for the limit objects), and
symbolic infinite arc configurations with exact classification into
weakly cluster tilting and cluster tilting.  A graded-module layer
provides an independent oracle through truncated towers of hom
dimensions.

Every name in ``__all__`` loads on first use: ``import infgon`` imports
no submodule, and ``infgon.classify`` imports ``infgon.configurations``
(with what it needs) the first time it is read.

``_EXPORTS`` below is the one list of public names.  Each submodule it
names sets its ``__all__`` from its entry, so a public name is written
once, here.
"""
from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "quiver": (
        "FiniteInd", "PruferInd", "IndObject", "HomWitness", "HomDim",
        "Tristate", "shift_object", "wedge_contains", "hom_dim", "ext_dim",
        "composite_nonzero",
    ),
    "arcs": (
        "FiniteArc", "InfiniteArc", "Arc", "CrossResult", "object_to_arc",
        "arc_to_object", "arcs_cross", "ext_via_crossing",
        "overarcs_crossing_infinite", "translate_arc", "arc_sort_key",
        "parse_arc", "format_arc",
    ),
    "graded": (
        "FiniteCyclic", "PolyFree", "PruferMod", "GradedModuleDescriptor",
        "f_image", "dual_descriptor", "degreewise_dims", "TowerDirection",
        "HomTower", "TowerUnstableError", "TowerColimit", "TowerLimit",
        "build_hom_tower", "build_inverse_hom_tower", "truncated_colim",
        "truncated_lim", "prufer_prufer_tower",
    ),
    "configurations": (
        "Explicit", "Fan", "Zigzag", "SplitFan", "Generator",
        "ArcConfiguration", "FountainFlags", "CertifiedMaximal", "AddableArc",
        "MaximalityResult", "Verdict", "ReasonKind", "Reason",
        "Classification", "configuration_from_dict", "configuration_to_dict",
        "load_configuration", "materialize", "noncrossing_check",
        "fountain_profile", "is_locally_finite", "maximality_check",
        "classify", "render_classification", "strong_overarc",
        "overarc_antichain",
    ),
    "approximations": (
        "ApproximationKind", "ApproximationReport", "approximation_report",
        "Move", "RidesSliceFrom", "ZigzagsForever", "TailBehavior",
        "DirectSystemDescriptor", "PruferLimit", "ZeroLimit", "SystemLimit",
        "classify_direct_system",
    ),
    "diagram": ("render_svg", "render_to_file"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
