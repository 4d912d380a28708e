"""The tests run under the allocator setting of every `orderlab` command."""

from orderlab import cli

cli.keep_freed_memory()
