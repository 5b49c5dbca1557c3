"""SystemVerilog assertion subset: tokenizer, parser, and syntax checkers."""
