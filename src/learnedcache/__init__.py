"""Learned page-cache eviction toolkit.

Pipeline: synthetic trace generation -> feature extraction at eviction time ->
quantile discretization -> pairwise (Bradley-Terry) ranker training ->
integer-quantized model pack -> tail-rerank cache simulation -> paired
statistical evaluation against FIFO.

Each public name is imported from its module (learnedcache.trace,
learnedcache.simcache, ...); the package itself re-exports nothing.
"""
