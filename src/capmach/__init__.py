"""Two capability machines, a secure calling convention, and a
differential harness for comparing them."""
