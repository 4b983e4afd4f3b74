from .cli import main

if __name__ == "__main__":  # worker processes started by spawn import this module under another name
    raise SystemExit(main())
