"""A small stand-in for ``click.testing.CliRunner``: it calls a CLI's
``main(argv)`` in process, with the standard streams captured, and
catches the ``SystemExit`` that ends the call."""

import io
import sys


class Result:
    """A call's exit code and captured bytes.  The text forms are UTF-8
    decoded with CRLF read as LF; ``output`` is stdout followed by stderr."""

    def __init__(self, exit_code: int, stdout_bytes: bytes, stderr_bytes: bytes,
                 exception: BaseException | None) -> None:
        self.exit_code = exit_code
        self.stdout_bytes = stdout_bytes
        self.stderr_bytes = stderr_bytes
        self.exception = exception

    @staticmethod
    def _text(data: bytes) -> str:
        return data.decode("utf-8", "replace").replace("\r\n", "\n")

    @property
    def stdout(self) -> str:
        return self._text(self.stdout_bytes)

    @property
    def stderr(self) -> str:
        return self._text(self.stderr_bytes)

    @property
    def output(self) -> str:
        return self._text(self.stdout_bytes + self.stderr_bytes)


class CliRunner:
    def invoke(self, cli, args, catch_exceptions: bool = True) -> Result:
        """Call ``cli(list(args))``.  A ``SystemExit`` gives the exit code and,
        when that is not 0, the exception; any other exception gives exit
        code 1 and the exception, or propagates without ``catch_exceptions``."""
        out, err = io.BytesIO(), io.BytesIO()
        # held here until the bytes are read: a text wrapper closes its buffer when freed
        streams = [io.TextIOWrapper(buffer, encoding="utf-8", write_through=True)
                   for buffer in (out, err)]
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = streams
        exit_code, exception = 0, None
        try:
            cli(list(args))
        except SystemExit as exit:
            exit_code = exit.code if isinstance(exit.code, int) else int(exit.code is not None)
            exception = exit if exit_code else None
        except Exception as error:
            if not catch_exceptions:
                raise
            exit_code, exception = 1, error
        finally:
            sys.stdout, sys.stderr = saved
        return Result(exit_code, out.getvalue(), err.getvalue(), exception)
