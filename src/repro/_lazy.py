"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package declares which submodule defines each of its public names.  A
name is imported on its first access (``repro.campaign.CampaignRunner``
or ``from repro.campaign import CampaignRunner``) and then cached in the
package namespace, so a command pays only for the submodules it uses.
"""

from importlib import import_module
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    namespace: dict, exports: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """Wire ``exports`` (relative submodule -> public names) into the
    package ``namespace``; returns ``(__all__, __getattr__, __dir__)``
    for the package to bind."""
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return sorted(origin), __getattr__, __dir__
