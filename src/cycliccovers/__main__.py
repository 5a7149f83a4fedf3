"""Entry point for `python -m cycliccovers`."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
