"""domaingate: multi-channel text classifiers gated by a latent domain.

Channels are mixed by a gate vector z that is either a latent
categorical (trained by exact marginalization) or a Beta/Dirichlet
vector (trained variationally with pathwise gradients through the
samples), so models transfer to domains never seen in training and can
exploit instances whose domain or label metadata is missing.
"""

__version__ = "0.1.0"


class ConfigError(ValueError):
    """An out-of-range setting, naming the field (``field``) that holds it."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"config field {field_name!r}: {message}")
        self.field = field_name
        self.detail = message
