"""Exception types shared across the pipeline."""

from __future__ import annotations


class PubrankError(Exception):
    """Base class for all fatal pipeline errors."""


class CorpusError(PubrankError):
    pass


class DuplicateItemError(CorpusError):
    def __init__(self, item_id: str, first_line: int, second_line: int):
        super().__init__(
            f"duplicate item_id {item_id!r} on lines {first_line} and {second_line}"
        )
        self.item_id = item_id
        self.first_line = first_line
        self.second_line = second_line


class RegistryError(PubrankError):
    pass


class AcquisitionCycleError(RegistryError):
    def __init__(self, members: list[str]):
        super().__init__("acquisition cycle: " + " -> ".join(members))
        self.members = members


class UnknownPublisherError(RegistryError):
    def __init__(self, publisher_id: str):
        super().__init__(f"unknown publisher_id {publisher_id!r}")
        self.publisher_id = publisher_id


class UnresolvedPublisherError(RegistryError):
    """Raw publisher string has no variant match; carries the folded form."""

    def __init__(self, folded: str):
        super().__init__(f"unresolved publisher string {folded!r}")
        self.folded = folded


class TaxonomyError(PubrankError):
    pass


class ExportError(PubrankError):
    pass


class ConfigError(PubrankError):
    pass
